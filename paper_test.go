package valuepred

import (
	"fmt"
	"testing"

	"valuepred/internal/stats"
)

// These integration tests assert the qualitative fidelity targets of
// DESIGN.md §6: the *shape* of every figure in the paper — who wins, how
// trends move with fetch bandwidth — must hold on the analogue workloads.
// Absolute magnitudes are recorded in EXPERIMENTS.md, not asserted here.

func paperParams(t *testing.T) Params {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-shape tests are not short")
	}
	p := DefaultParams()
	p.TraceLen = 60_000
	return p
}

// tableInvariants are properties of whole rendered tables, each written as
// a named check on one experiment's table with a hand-built table it must
// reject. A check returns nil when the table satisfies it.
var tableInvariants = []struct {
	name       string
	experiment string
	check      func(*Table) error
	broken     *Table
}{
	{
		// Every arc falls in exactly one DID bucket, so each row's bucket
		// percentages (every column but the last, ">=4 total") add up to
		// 100, to within the rounding of float64 percentages.
		name:       "fig3.4 rows sum to 100% ±0.5",
		experiment: "fig3.4",
		check: func(t *Table) error {
			for _, r := range t.Rows {
				var sum float64
				for _, c := range r.Cells[:len(r.Cells)-1] {
					sum += c
				}
				if sum < 99.5 || sum > 100.5 {
					return fmt.Errorf("%s histogram sums to %.2f%%", r.Label, sum)
				}
			}
			return nil
		},
		broken: &Table{
			Columns: []string{"1", "2", "3", "4-7", "8-15", "16-31", ">=32", ">=4 total"},
			Rows: []stats.Row{
				{Label: "go", Cells: []float64{30, 20, 10, 15, 10, 10, 5, 40}},
				{Label: "li", Cells: []float64{30, 20, 10, 15, 10, 10, 4.4, 39.4}},
			},
		},
	},
	{
		// A wider fetch engine only feeds the window faster, which is what
		// value prediction needs: the average speedup grows (weakly) with
		// width, with 2 points of slack for noise.
		name:       "fig3.1 average speedup non-decreasing in width, 2 points slack",
		experiment: "fig3.1",
		check: func(t *Table) error {
			avg, ok := t.Row("average")
			if !ok {
				return fmt.Errorf("no average row")
			}
			for i := 1; i < len(avg.Cells); i++ {
				if avg.Cells[i] < avg.Cells[i-1]-2 {
					return fmt.Errorf("average %s %.1f < %s %.1f - 2",
						t.Columns[i], avg.Cells[i], t.Columns[i-1], avg.Cells[i-1])
				}
			}
			return nil
		},
		broken: &Table{
			Columns: []string{"BW=4", "BW=8", "BW=16", "BW=32", "BW=40"},
			Rows: []stats.Row{
				{Label: "go", Cells: []float64{2, 17, 42, 39.9, 44}},
				{Label: "average", Cells: []float64{2, 17, 42, 39.9, 44}},
			},
		},
	},
}

// TestTableInvariants requires every table invariant to accept its
// experiment as rendered at 60k records and to reject its broken table.
func TestTableInvariants(t *testing.T) {
	p := paperParams(t)
	for _, inv := range tableInvariants {
		t.Run(inv.name, func(t *testing.T) {
			tab, err := RunExperiment(inv.experiment, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := inv.check(tab); err != nil {
				t.Errorf("accept %s: %v", inv.experiment, err)
			}
			if inv.check(inv.broken) == nil {
				t.Errorf("reject: accepted the broken table %+v", inv.broken)
			}
		})
	}
}

// TestFig31Shape: value-prediction speedup on the ideal machine is small
// at width 4, substantial at width 16+, and m88ksim/vortex are among the
// big winners (its growth with width is a table invariant above).
func TestFig31Shape(t *testing.T) {
	p := paperParams(t)
	tab, err := RunExperiment("fig3.1", p)
	if err != nil {
		t.Fatal(err)
	}
	avg, ok := tab.Row("average")
	if !ok {
		t.Fatal("no average row")
	}
	w4, w16, w40 := avg.Cells[0], avg.Cells[2], avg.Cells[4]
	if w4 > 15 {
		t.Errorf("width-4 average speedup %.1f%% too large; paper: barely noticeable", w4)
	}
	if w16 < 15 {
		t.Errorf("width-16 average speedup %.1f%% too small; paper: ~33%%", w16)
	}
	if w40 < w16 {
		t.Errorf("width-40 (%.1f%%) below width-16 (%.1f%%)", w40, w16)
	}
	// m88ksim and vortex beat the cross-benchmark average at width 16+,
	// the paper's headline benchmark observation.
	for _, name := range []string{"m88ksim", "vortex"} {
		v, _ := tab.Cell(name, "BW=16")
		if v < w16 {
			t.Errorf("%s at width 16 = %.1f%% below average %.1f%%", name, v, w16)
		}
	}
}

// TestFig33Shape: every benchmark's average DID exceeds the fetch width of
// "present" (1998) processors, i.e. 4.
func TestFig33Shape(t *testing.T) {
	p := paperParams(t)
	tab, err := RunExperiment("fig3.3", p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r.Label == "average" {
			continue
		}
		if r.Cells[0] <= 4 {
			t.Errorf("%s avg DID = %.1f, must exceed 4", r.Label, r.Cells[0])
		}
	}
}

// TestFig34Shape: a large fraction of dependencies span >= 4 instructions
// (the paper reports ~60% on average; our analogues sit lower but must be
// substantial). That its rows sum to ~100% is a table invariant above.
func TestFig34Shape(t *testing.T) {
	p := paperParams(t)
	tab, err := RunExperiment("fig3.4", p)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := tab.Row("average")
	frac4 := avg.Cells[len(avg.Cells)-1]
	if frac4 < 25 {
		t.Errorf("average frac(DID>=4) = %.1f%%, too small", frac4)
	}
}

// TestFig35Shape: the three categories partition the arcs, and a
// substantial fraction is predictable-with-short-DID — the paper's
// explanation for why narrow machines can't exploit value prediction.
func TestFig35Shape(t *testing.T) {
	p := paperParams(t)
	tab, err := RunExperiment("fig3.5", p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		sum := r.Cells[0] + r.Cells[1] + r.Cells[2]
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s categories sum to %.2f%%", r.Label, sum)
		}
	}
	avg, _ := tab.Row("average")
	if avg.Cells[1] < 10 {
		t.Errorf("predictable-short average = %.1f%%, paper: ~23%%", avg.Cells[1])
	}
}

// TestFig51Shape: on the realistic machine with an ideal BTB the average
// speedup grows strongly from n=1 to n=4 (paper: ~3% to ~50%).
func TestFig51Shape(t *testing.T) {
	p := paperParams(t)
	tab, err := RunExperiment("fig5.1", p)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := tab.Row("average")
	n1, n4, unl := avg.Cells[0], avg.Cells[3], avg.Cells[4]
	if n1 > 20 {
		t.Errorf("n=1 average %.1f%% too large; paper: ~3%%", n1)
	}
	if n4 < 2*n1 || n4 < 20 {
		t.Errorf("n=4 average %.1f%% does not dwarf n=1 (%.1f%%)", n4, n1)
	}
	if unl < n4-2 {
		t.Errorf("unlimited (%.1f%%) below n=4 (%.1f%%)", unl, n4)
	}
}

// TestFig52Shape: the 2-level BTB depresses the value-prediction speedup
// relative to the ideal BTB (paper: ~30% relative drop at n=4).
func TestFig52Shape(t *testing.T) {
	p := paperParams(t)
	ideal, err := RunExperiment("fig5.1", p)
	if err != nil {
		t.Fatal(err)
	}
	real, err := RunExperiment("fig5.2", p)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := ideal.Row("average")
	ra, _ := real.Row("average")
	if ra.Cells[3] >= ia.Cells[3] {
		t.Errorf("2-level BTB speedup at n=4 (%.1f%%) not below ideal (%.1f%%)",
			ra.Cells[3], ia.Cells[3])
	}
	if ra.Cells[3] < 5 {
		t.Errorf("2-level BTB speedup at n=4 = %.1f%%, paper: ~20%%", ra.Cells[3])
	}
}

// TestFig53Shape: with a trace cache, value prediction through the banked
// network gains more than 10% on average, and the ideal-BTB bound exceeds
// the 2-level-BTB result.
func TestFig53Shape(t *testing.T) {
	p := paperParams(t)
	tab, err := RunExperiment("fig5.3", p)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := tab.Row("average")
	twoLevel, idealBTB := avg.Cells[0], avg.Cells[1]
	if twoLevel < 10 {
		t.Errorf("TC+2levelBTB average = %.1f%%, paper: >10%%", twoLevel)
	}
	if idealBTB <= twoLevel {
		t.Errorf("TC+idealBTB (%.1f%%) not above TC+2levelBTB (%.1f%%)", idealBTB, twoLevel)
	}
}

// TestBankAblationShape: more banks cannot hurt, and a single bank is
// clearly worse than sixteen somewhere.
func TestBankAblationShape(t *testing.T) {
	p := paperParams(t)
	p.Workloads = []string{"compress95", "vortex", "m88ksim"}
	tab, err := RunExperiment("ablation.banks", p)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := tab.Row("average")
	first, last := avg.Cells[0], avg.Cells[len(avg.Cells)-1]
	if first > last+2 {
		t.Errorf("1 bank (%.1f%%) beats 16 banks (%.1f%%)", first, last)
	}
	if last-first < 1 {
		t.Errorf("bank count has no effect: %v", avg.Cells)
	}
}

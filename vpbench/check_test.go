package main

import (
	"math"
	"testing"

	"valuepred/internal/experiment"
	"valuepred/internal/stats"
	"valuepred/internal/tracestore"
)

func smallTable(t *testing.T, id string) *stats.Table {
	t.Helper()
	tab, err := experiment.Run(id, experiment.Params{
		Seed: 3, TraceLen: 4_000, Workloads: []string{"li", "vortex"}, Store: tracestore.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// perturb returns a copy of tab with its first cell moved to next(cell).
func perturb(tab *stats.Table, next func(float64) float64) *stats.Table {
	c := *tab
	c.Rows = append([]stats.Row(nil), tab.Rows...)
	c.Rows[0].Cells = append([]float64(nil), tab.Rows[0].Cells...)
	c.Rows[0].Cells[0] = next(c.Rows[0].Cells[0])
	return &c
}

// plusOne moves a cell by a step the rendered table shows.
func plusOne(v float64) float64 { return v + 1 }

// nextUp moves a cell by the smallest step a float64 can take, which only a
// bitwise comparison sees.
func nextUp(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

func TestCheckerCatchesAPerturbedTable(t *testing.T) {
	tab := smallTable(t, "fig3.1")

	// Unrecorded inputs: the first rendering becomes the reference.
	chk := newChecker("selftest", 3, 4_000)
	for i, c := range []struct {
		tab  *stats.Table
		want bool
	}{{tab, true}, {smallTable(t, "fig3.1"), true}, {perturb(tab, plusOne), false}} {
		ok, err := chk.check("fig3.1", c.tab)
		if err != nil || ok != c.want {
			t.Errorf("unrecorded check %d = (%v, %v), want %v", i, ok, err, c.want)
		}
	}

	// Recorded inputs: a perturbed table fails even as the first one seen.
	d, err := tableDigest(tab)
	if err != nil {
		t.Fatal(err)
	}
	key := digestKey{"selftest", 3, 4_000, "fig3.1"}
	recordedDigests[key] = d
	defer delete(recordedDigests, key)
	chk = newChecker("selftest", 3, 4_000)
	if !chk.recorded() {
		t.Fatal("checker does not see the recorded digest")
	}
	if ok, _ := chk.check("fig3.1", perturb(tab, plusOne)); ok {
		t.Error("a perturbed table passed the recorded digest")
	}
	if ok, _ := chk.check("fig3.1", tab); !ok {
		t.Error("the genuine table failed its recorded digest")
	}
}

func TestReplayPerturbedRowsAreCaught(t *testing.T) {
	tab := smallTable(t, "sec4")
	var rows []stats.Row
	for _, r := range tab.Rows {
		if r.Label != "average" {
			rows = append(rows, r)
		}
	}
	if !sameRows(tab, rows) {
		t.Fatal("a table's own rows do not match it")
	}
	if sameRows(tab, perturb(&stats.Table{Rows: rows}, nextUp).Rows) {
		t.Fatal("a perturbed replayed cell was not caught")
	}
	if sameRows(tab, rows[:1]) {
		t.Fatal("a missing replayed row was not caught")
	}
}

func TestRecordedDigestsMatchTheirSweeps(t *testing.T) {
	for k := range recordedDigests {
		s, ok := sweeps[k.workload]
		if !ok || s.traceLen != k.traceLen || (k.seed != defaultSeed && k.seed != heldOutSeed) {
			t.Errorf("recorded digest %+v matches no sweep at its length and the default or held-out seed", k)
		}
	}
}

// TestErroredTableMakesRunIncorrect shows that a sweep table whose
// experiment.Run errors makes the run incorrect even though every table that
// rendered matched its reference.
func TestErroredTableMakesRunIncorrect(t *testing.T) {
	s := sweepSpec{name: "selftest", exps: []string{"fig3.3", "no-such-experiment"}, traceLen: 4_000}
	p := experiment.Params{Seed: 3, TraceLen: 4_000, Workloads: []string{"li"}, Store: tracestore.New(0)}
	rep := newReport(s.traceLen)
	s.pass(p, newChecker(s.name, p.Seed, s.traceLen), rep)
	if rep.attempted != 2 || rep.checked != 1 || rep.failed != 1 || rep.mismatches != 0 || rep.correct() {
		t.Fatalf("attempted %d, checked %d, failed %d, mismatched %d, correct %v; want 2, 1, 1, 0, false",
			rep.attempted, rep.checked, rep.failed, rep.mismatches, rep.correct())
	}
}

package pipeline_test

import (
	"fmt"
	"testing"

	"valuepred/internal/btb"
	"valuepred/internal/experiment"
	"valuepred/internal/fetch"
	"valuepred/internal/pipeline"
	"valuepred/internal/predictor"
	"valuepred/internal/stats"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// run is what a Result invariant inspects: one simulation's Result with
// the trace length and the machine widths it ran at.
type run struct {
	label         string
	traceLen      int
	width, window int
	predictor     string // the direct value predictor's name, "" for none
	pipeline.Result
}

// invariants are properties of the paper's Section 5 machine, each written
// as a named check with a hand-built run it must reject. A check returns
// nil when the run satisfies it.
var invariants = []struct {
	name   string
	check  func(run) error
	broken run
}{
	{
		// Used counts correct predictions, Correct confident ones.
		name: "used <= correct <= attempted",
		check: func(r run) error {
			if r.Used > r.Correct || r.Correct > r.Attempted {
				return fmt.Errorf("used %d, correct %d, attempted %d", r.Used, r.Correct, r.Attempted)
			}
			return nil
		},
		broken: run{traceLen: 100, width: 40, window: 40,
			Result: pipeline.Result{Insts: 100, Cycles: 50, Attempted: 10, Correct: 5, Used: 6}},
	},
	{
		// Every instruction of the trace is fetched, executed and retired.
		name: "insts == trace length",
		check: func(r run) error {
			if r.Insts != uint64(r.traceLen) {
				return fmt.Errorf("retired %d of %d instructions", r.Insts, r.traceLen)
			}
			return nil
		},
		broken: run{traceLen: 100, width: 40, window: 40,
			Result: pipeline.Result{Insts: 99, Cycles: 50}},
	},
	{
		// Fetching Insts at Width per cycle takes ceil(Insts/Width)
		// cycles, and the last instruction executes two cycles after its
		// fetch.
		name: "cycles >= ceil(insts/width) + 2",
		check: func(r run) error {
			w := uint64(r.width)
			if r.Insts > 0 && r.Cycles < (r.Insts+w-1)/w+2 {
				return fmt.Errorf("%d insts in %d cycles at width %d", r.Insts, r.Cycles, r.width)
			}
			return nil
		},
		broken: run{traceLen: 100, width: 4, window: 40,
			Result: pipeline.Result{Insts: 100, Cycles: 26}},
	},
	{
		// The window never holds more than WindowSize instructions.
		name: "occupancy sum <= window × cycles",
		check: func(r run) error {
			if r.OccupancySum > uint64(r.window)*r.Cycles {
				return fmt.Errorf("occupancy sum %d over %d cycles of a %d-entry window", r.OccupancySum, r.Cycles, r.window)
			}
			return nil
		},
		broken: run{traceLen: 100, width: 40, window: 40,
			Result: pipeline.Result{Insts: 100, Cycles: 10, OccupancySum: 401}},
	},
	{
		// A cycle stalls fetch for at most one reason, and the first cycle
		// always fetches.
		name: "branch stall + window full cycles < cycles",
		check: func(r run) error {
			if r.BranchStallCycles+r.WindowFullCycles >= r.Cycles {
				return fmt.Errorf("%d branch-stall and %d window-full cycles of %d",
					r.BranchStallCycles, r.WindowFullCycles, r.Cycles)
			}
			return nil
		},
		broken: run{traceLen: 100, width: 40, window: 40,
			Result: pipeline.Result{Insts: 100, Cycles: 50, BranchStallCycles: 30, WindowFullCycles: 20}},
	},
}

// crossRunInvariants are properties of one workload's runs across every
// taken-branch limit and BTB, each with hand-built runs it must reject. A
// check returns nil when the runs satisfy it.
var crossRunInvariants = []struct {
	name   string
	check  func([]run) error
	broken []run
}{
	{
		// A direct predictor is looked up and updated at fetch in trace
		// order whatever the fetch engine, so its outcomes depend on the
		// trace alone: the premise that lets the experiments record them
		// once per trace and replay them in every cell.
		name: "same attempted and correct at every n and BTB",
		check: func(runs []run) error {
			first := map[string]run{}
			for _, r := range runs {
				f, ok := first[r.predictor]
				if !ok {
					first[r.predictor] = r
					continue
				}
				if r.Attempted != f.Attempted || r.Correct != f.Correct {
					return fmt.Errorf("attempted/correct %d/%d in %s, %d/%d in %s",
						f.Attempted, f.Correct, f.label, r.Attempted, r.Correct, r.label)
				}
			}
			return nil
		},
		broken: []run{
			{label: "n=1", predictor: "stride+2bc", Result: pipeline.Result{Insts: 100, Cycles: 50, Attempted: 10, Correct: 8}},
			{label: "n=4", predictor: "stride+2bc", Result: pipeline.Result{Insts: 100, Cycles: 40, Attempted: 11, Correct: 8}},
		},
	},
}

// tableInvariants are properties of the paper's Figures 5.1 and 5.2, each
// with a hand-built table it must reject.
var tableInvariants = []struct {
	name   string
	check  func(*stats.Table) error
	broken *stats.Table
}{
	{
		// Fetching past more taken branches per cycle only feeds the
		// window faster, which is what value prediction needs.
		name: "average speedup non-decreasing from n=1 to unlimited",
		check: func(t *stats.Table) error {
			for _, row := range t.Rows {
				if row.Label != "average" {
					continue
				}
				for i := 1; i < len(row.Cells); i++ {
					if row.Cells[i] < row.Cells[i-1] {
						return fmt.Errorf("average %s %.1f < %s %.1f",
							t.Columns[i], row.Cells[i], t.Columns[i-1], row.Cells[i-1])
					}
				}
				return nil
			}
			return fmt.Errorf("no average row")
		},
		broken: &stats.Table{
			Columns: []string{"n=1", "n=2", "n=3", "n=4", "unlimited"},
			Rows: []stats.Row{
				{Label: "go", Cells: []float64{1, 2, 3, 2, 2}},
				{Label: "average", Cells: []float64{1, 2, 3, 2, 2}},
			},
		},
	},
}

// measure simulates recs under fig5.1's and fig5.2's configurations: the
// paper's machine with a perfect or a 2-level BTB at each taken-branch
// limit, without and with the classified stride predictor.
func measure(t *testing.T, name string, recs []trace.Rec) []run {
	t.Helper()
	var runs []run
	for _, bp := range []struct {
		name string
		new  func() btb.Predictor
	}{
		{"perfect", func() btb.Predictor { return btb.NewPerfect() }},
		{"2level", func() btb.Predictor { return btb.NewTwoLevel(btb.DefaultTwoLevelConfig()) }},
	} {
		for _, n := range experiment.Fig5Taken {
			for _, vp := range []bool{false, true} {
				cfg := pipeline.DefaultConfig()
				var pred string
				if vp {
					cfg.Predictor = predictor.NewClassifiedStride()
					pred = cfg.Predictor.Name()
				}
				res, err := pipeline.Run(fetch.NewSequential(recs, bp.new(), n), cfg)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, run{
					label:    fmt.Sprintf("%s/%s-btb/n=%d/vp=%v", name, bp.name, n, vp),
					traceLen: len(recs), width: cfg.Width, window: cfg.WindowSize,
					predictor: pred, Result: res,
				})
			}
		}
	}
	return runs
}

// TestInvariants requires every Result invariant to accept each workload
// under fig5.1's and fig5.2's configurations and to reject its broken run,
// every cross-run invariant to accept each workload's runs and to reject
// its broken runs, and every table invariant to accept fig5.1 and fig5.2
// as the golden corpus renders them and to reject its broken table.
func TestInvariants(t *testing.T) {
	var runs []run
	var byWorkload [][]run
	for _, name := range workload.Names() {
		w := measure(t, name, workload.MustTrace(name, 1, 20_000))
		runs = append(runs, w...)
		byWorkload = append(byWorkload, w)
	}
	for _, inv := range crossRunInvariants {
		t.Run(inv.name, func(t *testing.T) {
			for _, w := range byWorkload {
				if err := inv.check(w); err != nil {
					t.Errorf("accept: %v", err)
				}
			}
			if inv.check(inv.broken) == nil {
				t.Errorf("reject: accepted the broken runs %+v", inv.broken)
			}
		})
	}
	for _, inv := range invariants {
		t.Run(inv.name, func(t *testing.T) {
			for _, r := range runs {
				if err := inv.check(r); err != nil {
					t.Errorf("accept %s: %v", r.label, err)
				}
			}
			if inv.check(inv.broken) == nil {
				t.Errorf("reject: accepted the broken run %+v", inv.broken)
			}
		})
	}

	p := experiment.DefaultParams()
	p.TraceLen = 10_000
	var tables []*stats.Table
	for _, id := range []string{"fig5.1", "fig5.2"} {
		tab, err := experiment.Run(id, p)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
	}
	for _, inv := range tableInvariants {
		t.Run(inv.name, func(t *testing.T) {
			for _, tab := range tables {
				if err := inv.check(tab); err != nil {
					t.Errorf("accept %s: %v", tab.Title, err)
				}
			}
			if inv.check(inv.broken) == nil {
				t.Errorf("reject: accepted the broken table %+v", inv.broken)
			}
		})
	}
}

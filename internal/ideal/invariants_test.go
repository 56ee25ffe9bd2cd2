package ideal

import (
	"fmt"
	"testing"

	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// runSet is what an invariant inspects: one trace run at one fetch width
// and penalty 0 without value prediction, with fig3.1's classified stride
// predictor, with the unclassified stride predictor and with perfect
// value prediction.
type runSet struct {
	width                            int
	base, classified, stride, oracle Result
}

// namedResult is one run of a set, labelled for error messages.
type namedResult struct {
	name string
	Result
}

// predicted lists the runs that used value prediction.
func (s runSet) predicted() []namedResult {
	return []namedResult{{"classified stride", s.classified}, {"stride", s.stride}, {"oracle", s.oracle}}
}

// all lists every run of the set.
func (s runSet) all() []namedResult {
	return append(s.predicted(), namedResult{"base", s.base})
}

// invariants are properties of the paper's Section 3 machine, each written
// as a named check with a hand-built run set it must reject. A check
// returns nil when the set satisfies it.
var invariants = []struct {
	name   string
	check  func(runSet) error
	broken runSet
}{
	{
		// Used counts correct predictions, Correct confident ones.
		name: "used <= correct <= attempted",
		check: func(s runSet) error {
			for _, r := range s.all() {
				if r.Used > r.Correct || r.Correct > r.Attempted {
					return fmt.Errorf("%s: used %d, correct %d, attempted %d", r.name, r.Used, r.Correct, r.Attempted)
				}
			}
			return nil
		},
		broken: runSet{width: 4,
			base:       Result{Insts: 100, Cycles: 60},
			classified: Result{Insts: 100, Cycles: 50, Attempted: 10, Correct: 5, Used: 6},
			stride:     Result{Insts: 100, Cycles: 50},
			oracle:     Result{Insts: 100, Cycles: 40},
		},
	},
	{
		// Fetching Insts at Width per cycle takes ceil(Insts/width)
		// cycles, and the last instruction executes two cycles after
		// its fetch.
		name: "cycles >= ceil(insts/width) + 2",
		check: func(s runSet) error {
			w := uint64(s.width)
			for _, r := range s.all() {
				if r.Insts > 0 && r.Cycles < (r.Insts+w-1)/w+2 {
					return fmt.Errorf("%s: %d insts in %d cycles at width %d", r.name, r.Insts, r.Cycles, s.width)
				}
			}
			return nil
		},
		broken: runSet{width: 4,
			base:       Result{Insts: 100, Cycles: 60},
			classified: Result{Insts: 100, Cycles: 50},
			stride:     Result{Insts: 100, Cycles: 50},
			oracle:     Result{Insts: 100, Cycles: 26},
		},
	},
	{
		// At penalty 0 a misprediction costs what no prediction costs,
		// and a correct one removes a constraint.
		name: "vp ipc >= base ipc at penalty 0",
		check: func(s runSet) error {
			for _, r := range s.predicted() {
				if r.IPC() < s.base.IPC() {
					return fmt.Errorf("%s IPC %.4f < base IPC %.4f", r.name, r.IPC(), s.base.IPC())
				}
			}
			return nil
		},
		broken: runSet{width: 4,
			base:       Result{Insts: 100, Cycles: 50},
			classified: Result{Insts: 100, Cycles: 60},
			stride:     Result{Insts: 100, Cycles: 50},
			oracle:     Result{Insts: 100, Cycles: 40},
		},
	},
	{
		// Perfect prediction removes every constraint any predictor
		// removes.
		name: "oracle-vp ipc >= stride-vp ipc at penalty 0",
		check: func(s runSet) error {
			for _, r := range s.predicted()[:2] {
				if s.oracle.IPC() < r.IPC() {
					return fmt.Errorf("oracle IPC %.4f < %s IPC %.4f", s.oracle.IPC(), r.name, r.IPC())
				}
			}
			return nil
		},
		broken: runSet{width: 4,
			base:       Result{Insts: 100, Cycles: 60},
			classified: Result{Insts: 100, Cycles: 50},
			stride:     Result{Insts: 100, Cycles: 40},
			oracle:     Result{Insts: 100, Cycles: 45},
		},
	},
}

// crossRunInvariants are properties of one workload's run sets across
// every fetch width, each with hand-built run sets it must reject. A check
// returns nil when the sets satisfy it.
var crossRunInvariants = []struct {
	name   string
	check  func([]runSet) error
	broken []runSet
}{
	{
		// A direct predictor is looked up and updated at fetch in trace
		// order whatever the width, so its outcomes depend on the trace
		// alone: the premise that lets the experiments record them once
		// per trace and replay them in every cell.
		name: "same attempted and correct at every width",
		check: func(sets []runSet) error {
			for _, s := range sets[1:] {
				for i, r := range s.predicted() {
					first := sets[0].predicted()[i]
					if r.Attempted != first.Attempted || r.Correct != first.Correct {
						return fmt.Errorf("%s: attempted/correct %d/%d at width %d, %d/%d at width %d", r.name,
							first.Attempted, first.Correct, sets[0].width, r.Attempted, r.Correct, s.width)
					}
				}
			}
			return nil
		},
		broken: []runSet{
			{width: 4, classified: Result{Insts: 100, Cycles: 50, Attempted: 10, Correct: 8}},
			{width: 8, classified: Result{Insts: 100, Cycles: 40, Attempted: 10, Correct: 7}},
		},
	},
}

// measure simulates recs at width in the four configurations of a runSet.
func measure(t *testing.T, recs []trace.Rec, width int) runSet {
	t.Helper()
	run := func(oracle bool, p predictor.Predictor) Result {
		cfg := DefaultConfig(width)
		cfg.OracleVP, cfg.Predictor = oracle, p
		r, err := Run(trace.NewSliceSource(recs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return runSet{
		width:      width,
		base:       run(false, nil),
		classified: run(false, predictor.NewClassifiedStride()),
		stride:     run(false, predictor.NewStride()),
		oracle:     run(true, nil),
	}
}

// TestInvariants requires every invariant to accept each workload at each
// of fig3.1's fetch widths and to reject its broken run set, and every
// cross-run invariant to accept each workload's sets across the widths and
// to reject its broken sets.
func TestInvariants(t *testing.T) {
	var sets []runSet
	var labels []string
	byWorkload := map[string][]runSet{}
	for _, name := range workload.Names() {
		recs := workload.MustTrace(name, 1, 20_000)
		for _, w := range []int{4, 8, 16, 32, 40} {
			s := measure(t, recs, w)
			sets = append(sets, s)
			labels = append(labels, fmt.Sprintf("%s/BW=%d", name, w))
			byWorkload[name] = append(byWorkload[name], s)
		}
	}
	for _, inv := range crossRunInvariants {
		t.Run(inv.name, func(t *testing.T) {
			for _, name := range workload.Names() {
				if err := inv.check(byWorkload[name]); err != nil {
					t.Errorf("accept %s: %v", name, err)
				}
			}
			if inv.check(inv.broken) == nil {
				t.Errorf("reject: accepted the broken sets %+v", inv.broken)
			}
		})
	}
	for _, inv := range invariants {
		t.Run(inv.name, func(t *testing.T) {
			for i, s := range sets {
				if err := inv.check(s); err != nil {
					t.Errorf("accept %s: %v", labels[i], err)
				}
			}
			if inv.check(inv.broken) == nil {
				t.Errorf("reject: accepted the broken set %+v", inv.broken)
			}
		})
	}
}

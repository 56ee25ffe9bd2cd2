package valuepred

import (
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"valuepred/internal/chunk"
	"valuepred/internal/fetch"
	"valuepred/internal/pipeline"
	"valuepred/internal/trace"
	"valuepred/internal/tracestore"
)

// TestStreamedTablesMatchMaterialized is the byte-identity contract of the
// streaming trace pipeline (DESIGN.md §13): for EVERY registered
// experiment, the tables rendered from compressed chunk streams and from
// materialized flat traces at worker widths 1 and 8 must all be equal,
// byte for byte. The sweep covers all three fetch engines, the ideal
// machine, the dataflow analyses, profiling over a trace prefix and the
// predictor evaluations — every consumer the streaming seam rewired.
//
// It also holds every view of a shared trace read-only: each workload's
// cached flat trace must still hold the same records, in the same backing
// array, after all four renders. A write through a fetch group, a slice
// source's view or trace.ForEach fails here even when no table moves.
func TestStreamedTablesMatchMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment four times")
	}
	p := DefaultParams()
	p.TraceLen = 3_000
	p.Workloads = []string{"compress95", "li"}
	p.Store = tracestore.New(0)

	cached := make(map[string][]trace.Rec)
	saved := make(map[string][]trace.Rec)
	for _, w := range p.Workloads {
		recs, err := p.Store.Get(w, p.Seed, p.TraceLen)
		if err != nil {
			t.Fatal(err)
		}
		cached[w], saved[w] = recs, slices.Clone(recs)
	}

	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}

	render := func(stream bool, workers int) map[string]string {
		prev := SetWorkers(workers)
		defer SetWorkers(prev)
		pp := p
		pp.Stream = stream
		out := make(map[string]string, len(ids))
		for _, id := range ids {
			tab, err := RunExperiment(id, pp)
			if err != nil {
				t.Fatalf("stream=%v workers=%d: %s: %v", stream, workers, id, err)
			}
			var sb strings.Builder
			if err := tab.Render(&sb); err != nil {
				t.Fatalf("%s: render: %v", id, err)
			}
			out[id] = sb.String()
		}
		return out
	}

	want := render(false, 1)
	for _, run := range []struct {
		stream  bool
		workers int
	}{{false, 8}, {true, 1}, {true, 8}} {
		got := render(run.stream, run.workers)
		for _, id := range ids {
			if got[id] != want[id] {
				t.Errorf("%s: table (stream=%v, workers=%d) differs from the flat one at workers=1:\n%s",
					id, run.stream, run.workers, firstDiff(want[id], got[id]))
			}
		}
	}

	for _, w := range p.Workloads {
		recs, err := p.Store.Get(w, p.Seed, p.TraceLen)
		if err != nil {
			t.Fatal(err)
		}
		if &recs[0] != &cached[w][0] {
			t.Fatalf("%s: the store no longer holds the trace the renders read", w)
		}
		for i := range recs {
			if recs[i] != saved[w][i] {
				t.Errorf("%s: cached record %d was written during the renders: now %+v, was %+v", w, i, recs[i], saved[w][i])
				break
			}
		}
	}
}

// TestStreamAllocBudget pins the streaming path's memory discipline in the
// pool_test.go style: once a trace is resident as a compressed chunk
// sequence, a full streamed machine run must cost a small fixed number of
// allocations — the pooled decode chunk, the window buffer and the
// machine's own pooled scratch — NOT O(trace length). Before the chunk
// pool the same run would materialize the whole trace (64 bytes per
// record); any per-record or per-chunk allocation that sneaks back into
// Cursor.fill or Window.fillOne blows the budget immediately.
func TestStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are checked without -race: sync.Pool drops items at random under the race detector")
	}
	recs, err := Trace("compress95", 1, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chunk.Build(trace.NewSliceSource(recs), len(recs), 0)
	if err != nil {
		t.Fatal(err)
	}

	run := func() {
		src := chunk.NewCursor(seq, seq.Len())
		eng := fetch.NewSequentialSource(src, NewPerfectBTB(), 4)
		if _, err := pipeline.Run(eng, pipeline.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// A GC cycle during the measurement clears the sync.Pools and charges
	// the repopulation allocations to this budget — noise proportional to
	// how much heap earlier tests in this binary churned, not a streaming
	// regression. Pause the collector for the measurement; a per-record
	// allocation still blows the budget instantly with GC off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm the chunk pool and the machine scratch pools
	const budget = 100
	if got := testing.AllocsPerRun(5, run); got > budget {
		t.Errorf("streamed 200k-instruction machine run: %.0f allocs/run, budget %d "+
			"(the budget is trace-length independent; a per-chunk or per-record "+
			"allocation regressed the streaming hot path)", got, budget)
	}
}

package valuepred

import (
	"strings"
	"testing"

	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// These tests guard the memory discipline of DESIGN.md §12: the simulation
// engines draw all per-run state from pooled scratches, so two invariants
// must hold. First, a dirty scratch must be indistinguishable from a fresh
// one — no value computed by one cell may leak into the next. Second, the
// per-cell hot path must stay allocation-free per instruction, because
// per-instruction allocation is exactly what made the parallel engine
// slower than serial (BENCH_pr5.json's 0.92× workers_speedup).

// TestPooledScratchReuseIsDeterministic is the dirty-pool hammer: it runs
// the same experiment grids three times back-to-back on a wide pool and
// byte-compares every render. The first pass runs on the freshest pool
// this process can offer; the later passes run on scratches dirtied by
// the pass before — filled store tables, grown cycle rings and lookup
// buffers. Any stale scratch state leaking between cells shows up as a
// diff. Under `make race` it also probes the pool for data races, though
// it caught a use after Put in only some runs; internal/pipeline's
// TestScratchIsNotUsedAfterPut is the dedicated probe for that. Both
// machines draw from the pipeline's one scratch
// pool: fig3.1 dirties it through RunPerfectFetch (the store table
// and cycle ring), fig5.3 through Run (the same two plus the network PC
// buffer) and reuses the network's group buffers. The group buffer
// RunPerfectFetch reads a non-slice source into is dirtied by the
// streamed runs of stream_test.go, which must match the flat renders.
func TestPooledScratchReuseIsDeterministic(t *testing.T) {
	p := DefaultParams()
	p.TraceLen = 4_000
	p.Workloads = []string{"compress95", "li"}
	ids := []string{"fig3.1", "fig5.3"}

	prev := SetWorkers(8)
	defer SetWorkers(prev)

	render := func(pass int) map[string]string {
		out := make(map[string]string, len(ids))
		for _, id := range ids {
			tab, err := RunExperiment(id, p)
			if err != nil {
				t.Fatalf("pass %d: %s: %v", pass, id, err)
			}
			var sb strings.Builder
			if err := tab.Render(&sb); err != nil {
				t.Fatalf("pass %d: %s: render: %v", pass, id, err)
			}
			out[id] = sb.String()
		}
		return out
	}

	fresh := render(1)
	for pass := 2; pass <= 3; pass++ {
		dirty := render(pass)
		for _, id := range ids {
			if fresh[id] != dirty[id] {
				t.Errorf("%s: pass 1 (fresh pool) and pass %d (dirty pool) renders differ:\n%s",
					id, pass, firstDiff(fresh[id], dirty[id]))
			}
		}
	}
}

// TestAllocBudgetPerCell pins the per-cell allocation count with
// testing.AllocsPerRun. The budgets are deliberately loose multiples of
// the measured steady state (ideal with a live predictor ~6, nearly all of
// them the growth of its dense tables; ideal replaying an outcome stream
// ~1; network machine ~1060; sequential machine ~1, and behind a 2-level
// BTB ~4, for a 20k-instruction trace) but far below one allocation
// per instruction — before the pooled scratches the same runs cost ~2.8
// allocations per instruction (~56k per run at this trace length), so any
// reintroduced per-instruction allocation fails immediately.
func TestAllocBudgetPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are checked without -race: sync.Pool drops items at random under the race detector")
	}
	recs, err := Trace("compress95", 1, 20_000)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, budget float64, f func()) {
		t.Helper()
		f() // warm the scratch pools before measuring
		if got := testing.AllocsPerRun(5, f); got > budget {
			t.Errorf("%s: %.0f allocs/run, budget %.0f", name, got, budget)
		}
	}

	// Ideal machine, predictor included: the per-cell grid path of fig3.1.
	check("ideal+predictor", 200, func() {
		cfg := NewIdealConfig(16)
		cfg.Predictor = NewClassifiedStridePredictor()
		if _, err := RunIdeal(recs, cfg); err != nil {
			t.Fatal(err)
		}
	})

	// Ideal machine replaying a recorded outcome stream: the per-cell grid
	// path of fig3.1's vp cells, which keep no predictor state at all.
	outs, _ := predictor.RecordOutcomes(predictor.NewClassifiedStride(), trace.NewSliceSource(recs))
	check("ideal+outcomes", 50, func() {
		cfg := NewIdealConfig(16)
		cfg.Outcomes = outs
		if _, err := RunIdeal(recs, cfg); err != nil {
			t.Fatal(err)
		}
	})

	// Sequential-fetch machine: the pipeline's pooled scratch and the
	// fetch engine's zero-copy group views leave only O(1) allocations per
	// run (the engine itself).
	check("machine/sequential", 50, func() {
		cfg := NewMachineConfig()
		if _, err := RunMachine(NewSequentialFetch(recs, NewPerfectBTB(), 1), cfg); err != nil {
			t.Fatal(err)
		}
	})

	// The same machine behind the paper's 2-level BTB, which keeps its
	// entries and pattern counters in two flat arrays: a few allocations
	// per run, not one per set at construction and one per BTB miss.
	check("machine/sequential+2-level BTB", 50, func() {
		cfg := NewMachineConfig()
		if _, err := RunMachine(NewSequentialFetch(recs, NewTwoLevelBTB(), 1), cfg); err != nil {
			t.Fatal(err)
		}
	})

	// Trace-cache machine with the banked network: per-cell predictor, BTB
	// and trace-cache line state remains (it scales with the static code
	// footprint), but nothing per dynamic instruction.
	check("machine/tracecache+network", 5_000, func() {
		net, err := NewNetwork(NewNetworkConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := NewMachineConfig()
		cfg.Network = net
		eng := NewTraceCacheFetch(recs, NewTwoLevelBTB(), NewTraceCacheConfig())
		if _, err := RunMachine(eng, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

package plan

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valuepred/internal/obs"
)

// setWorkers resizes the global pool for one test and restores it after.
func setWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(prev) })
}

// grid builds an n-cell grid whose cell i runs fn(i).
func grid(id string, n int, fn func(i int) (any, error)) *Grid {
	g := &Grid{}
	for i := 0; i < n; i++ {
		i := i
		g.Add(Key{Experiment: id, Workload: fmt.Sprintf("w%02d", i)},
			func(context.Context) (any, error) { return fn(i) })
	}
	return g
}

func TestKeyString(t *testing.T) {
	k := Key{Experiment: "fig3.1", Workload: "gcc", Column: "BW=8", Variant: "vp", Seed: 1}
	if got, want := k.String(), "fig3.1/gcc/BW=8/vp/seed=1"; got != want {
		t.Errorf("Key.String() = %q, want %q", got, want)
	}
	sparse := Key{Experiment: "traces", Workload: "go", Seed: 7}
	if got, want := sparse.String(), "traces/go/seed=7"; got != want {
		t.Errorf("sparse Key.String() = %q, want %q", got, want)
	}
}

// TestResultsInCanonicalOrder checks the merge discipline: whatever order
// cells complete in, results come back positionally aligned with the
// declaration order.
func TestResultsInCanonicalOrder(t *testing.T) {
	setWorkers(t, 4)
	const n = 32
	results, err := Run(context.Background(), grid("order", n, func(i int) (any, error) {
		// Early-declared cells finish last.
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * 10, nil
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("len(results) = %d, want %d", len(results), n)
	}
	for i, r := range results {
		if r.(int) != i*10 {
			t.Errorf("results[%d] = %v, want %d", i, r, i*10)
		}
	}
}

// TestBoundedConcurrency checks that the global pool, not the grid size,
// bounds how many cells compute at once — including across two grids
// running concurrently.
func TestBoundedConcurrency(t *testing.T) {
	setWorkers(t, 3)
	var running, peak atomic.Int64
	cell := func(int) (any, error) {
		now := running.Add(1)
		for {
			old := peak.Load()
			if now <= old || peak.CompareAndSwap(old, now) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
		return nil, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(context.Background(), grid("bound", 16, cell), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency = %d, want <= 3 (two grids sharing one pool)", p)
	}
}

// TestFirstErrorInCanonicalOrderWins checks that a later-declared cell
// failing first does not displace the earlier-declared failure: cell
// errors never abort siblings, and the merge scans in declaration order.
func TestFirstErrorInCanonicalOrderWins(t *testing.T) {
	setWorkers(t, 4)
	errA := errors.New("cell 3 failed")
	errB := errors.New("cell 9 failed")
	_, err := Run(context.Background(), grid("errs", 12, func(i int) (any, error) {
		switch i {
		case 3:
			time.Sleep(5 * time.Millisecond) // completes after cell 9
			return nil, errA
		case 9:
			return nil, errB
		}
		return i, nil
	}), nil)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the canonical-first %v", err, errA)
	}
	if errors.Is(err, errB) {
		t.Fatalf("err = %v also wraps the canonically later error", err)
	}
	if !strings.Contains(err.Error(), "errs/w03") {
		t.Errorf("error %q does not name the failing cell", err)
	}
}

// TestCancelFailsFast is the cancel-mid-grid regression test: once the
// context is canceled, Run returns the wrapped context error promptly,
// cells that have not started are skipped, and the skip is reported in
// preference to any per-cell outcome.
func TestCancelFailsFast(t *testing.T) {
	setWorkers(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	var ran atomic.Int64
	g := grid("cancel", 64, func(i int) (any, error) {
		ran.Add(1)
		started <- struct{}{}
		<-ctx.Done() // park until the cancel lands
		return nil, nil
	})
	go func() {
		<-started
		<-started // both workers are inside cells
		cancel()
	}()
	_, err := Run(ctx, g, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	// Fail-fast: with two workers parked in cells until the cancel, no
	// other cell may start afterwards.
	if n := ran.Load(); n > 2 {
		t.Errorf("%d cells ran, want <= 2 (unstarted cells must be skipped)", n)
	}
}

// TestCancelPreferredOverCellError: a cancellation racing a failing cell
// reports the context error, matching experiment.RunCtx's "the caller
// asked the whole run to stop" semantics.
func TestCancelPreferredOverCellError(t *testing.T) {
	setWorkers(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Run(ctx, grid("both", 4, func(i int) (any, error) {
		cancel()
		return nil, errors.New("cell failure")
	}), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context error to win", err)
	}
}

// TestPanicBecomesError: a panicking cell settles as that cell's error
// instead of unwinding a pool worker (which would kill a server process
// and leak a token).
func TestPanicBecomesError(t *testing.T) {
	setWorkers(t, 2)
	_, err := Run(context.Background(), grid("boom", 4, func(i int) (any, error) {
		if i == 1 {
			panic("kaboom")
		}
		return i, nil
	}), nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "boom/w01") {
		t.Fatalf("err = %v, want a keyed panic error", err)
	}
	// The pool must still be fully usable afterwards.
	if _, err := Run(context.Background(), grid("after", 4, func(i int) (any, error) { return i, nil }), nil); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
}

// TestCellPprofLabels checks that each cell runs under pprof labels
// naming its key, so a CPU profile splits by cell with -tags/-tagfocus.
func TestCellPprofLabels(t *testing.T) {
	setWorkers(t, 2)
	keys := []Key{
		{Experiment: "fig3.1", Workload: "gcc", Column: "BW=8", Variant: "vp", Seed: 1},
		{Experiment: "traces", Workload: "go", Seed: 1},
	}
	g := &Grid{}
	for _, k := range keys {
		g.Add(k, func(ctx context.Context) (any, error) {
			got := map[string]string{}
			pprof.ForLabels(ctx, func(key, value string) bool {
				got[key] = value
				return true
			})
			return got, nil
		})
	}
	results, err := Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want := map[string]string{"experiment": k.Experiment, "workload": k.Workload, "column": k.Column, "variant": k.Variant}
		got := results[i].(map[string]string)
		if len(got) != len(want) {
			t.Errorf("cell %s: labels %v, want %v", k, got, want)
		}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("cell %s: label %s = %q, want %q", k, name, got[name], v)
			}
		}
	}
}

func TestEmptyAndNilContext(t *testing.T) {
	if res, err := Run(context.Background(), &Grid{}, nil); err != nil || res != nil {
		t.Fatalf("empty grid: %v, %v", res, err)
	}
	res, err := Run(nil, grid("nilctx", 3, func(i int) (any, error) { return i, nil }), nil) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil || len(res) != 3 {
		t.Fatalf("nil ctx: %v, %v", res, err)
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(5)
	defer SetWorkers(prev)
	if Workers() != 5 {
		t.Errorf("Workers() = %d after SetWorkers(5)", Workers())
	}
	if got := SetWorkers(0); got != 5 {
		t.Errorf("SetWorkers returned %d, want the previous width 5", got)
	}
	if Workers() < 1 {
		t.Errorf("Workers() = %d after SetWorkers(0), want the GOMAXPROCS default", Workers())
	}
}

// TestObsInstrumentation checks the runner's write-only metrics: cell
// count, error count, settled queue depth, and the deterministic "plan"
// tracer track.
func TestObsInstrumentation(t *testing.T) {
	setWorkers(t, 2)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1)
	sink := obs.New(reg, tr)
	_, err := Run(context.Background(), grid("metrics", 8, func(i int) (any, error) {
		if i == 5 {
			return nil, errors.New("one bad cell")
		}
		return i, nil
	}), sink)
	if err == nil {
		t.Fatal("want the cell error back")
	}
	snap := reg.Snapshot()
	if c, _ := snap.Counter("plan.cells"); c != 8 {
		t.Errorf("plan.cells = %d, want 8", c)
	}
	if c, _ := snap.Counter("plan.cell_errors"); c != 1 {
		t.Errorf("plan.cell_errors = %d, want 1", c)
	}
	if gauge, _ := snap.Gauge("plan.queue_depth"); gauge != 0 {
		t.Errorf("plan.queue_depth settled at %d, want 0", gauge)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"name":"plan"`) || !strings.Contains(sb.String(), "metrics/w05") {
		t.Errorf("tracer output missing the plan track or cell events:\n%s", sb.String())
	}
}

// TestRaceHammer drives many concurrent grids through a deliberately tiny
// pool; run under -race it is the runner's data-race regression test.
func TestRaceHammer(t *testing.T) {
	setWorkers(t, 2)
	const grids = 12
	var wg sync.WaitGroup
	for gi := 0; gi < grids; gi++ {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("hammer%d", gi)
			results, err := Run(context.Background(), grid(id, 24, func(i int) (any, error) {
				return gi*1000 + i, nil
			}), nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i, r := range results {
				if r.(int) != gi*1000+i {
					t.Errorf("%s: results[%d] = %v", id, i, r)
				}
			}
		}()
	}
	wg.Wait()
}

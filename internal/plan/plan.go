// Package plan is the simulator's execution engine: a declarative
// execution-plan model plus a deterministic bounded runner. An experiment
// no longer hand-rolls goroutines; it *declares* a Grid of Cells — one
// Cell per independent simulation, canonically keyed by (experiment,
// workload, column, variant, seed) — and the runner executes the cells in
// any order on a bounded worker pool, then merges the results strictly in
// declaration (canonical) order.
//
// The contract that makes parallelism safe under the determinism rules
// (DESIGN.md §9) is the merge discipline: cells may *complete* in any
// scheduler-dependent order, but results are returned in declaration
// order, the first error in declaration order wins regardless of
// completion order, and nothing a caller can observe depends on timing.
// Every table therefore renders byte-identically at workers=1 and
// workers=N — pinned by the experiment package's byte-identity sweep.
//
// The worker pool is process-global: one token pool bounds actual
// simulation parallelism across every concurrently running grid —
// experiment sweeps, multi-seed preloads and all of vpserve's coalesced
// flights share it. vpserve's admission semaphore bounds how many
// requests may simulate at once; this pool bounds how many *cells* are on
// a CPU at once, so total simulation concurrency is no longer
// requests × workloads. SetWorkers resizes the pool (the -workers flag of
// cmd/vpsim and cmd/vpserve); the default is GOMAXPROCS.
//
// Cancellation is cooperative and fails fast across the whole grid: once
// the run's context is canceled, cells that have not started are skipped,
// workers drain without acquiring further tokens, and Run reports the
// context's error in preference to any per-cell error — mirroring the
// checkpoint semantics of experiment.RunCtx one layer down.
package plan

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"valuepred/internal/obs"
)

// Key canonically identifies one cell of an execution plan. Experiments
// key cells by their position in the emitted table — the workload names
// the row, the column names the swept configuration, and the variant
// distinguishes the runs merged into one cell (typically "base" vs "vp").
// Unused coordinates stay empty.
type Key struct {
	// Experiment is the owning experiment id ("fig3.1", or a synthetic id
	// like "traces" for non-table grids).
	Experiment string
	// Workload is the benchmark name (the table row).
	Workload string
	// Column is the swept-configuration label (the table column).
	Column string
	// Variant distinguishes runs that merge into one table cell.
	Variant string
	// Seed is the workload input seed of this cell's run.
	Seed int64
}

// String renders the key in the observability track style,
// "fig3.1/gcc/BW=8/vp/seed=1"; empty coordinates are skipped.
func (k Key) String() string {
	s := k.Experiment
	for _, part := range []string{k.Workload, k.Column, k.Variant} {
		if part != "" {
			s += "/" + part
		}
	}
	return fmt.Sprintf("%s/seed=%d", s, k.Seed)
}

// Cell is one independent simulation of a grid: a canonical key plus the
// closure that computes the cell's value. Run must be self-contained —
// it builds its own predictors and machines, reads shared traces only —
// because cells execute concurrently in arbitrary order. The context is
// the grid run's context; long cells may (but need not) poll it.
type Cell struct {
	Key Key
	Run func(ctx context.Context) (any, error)
}

// Grid is the ordered cell set an experiment emits. Declaration order is
// the canonical order: Run returns results positionally aligned with the
// cells, and the first error in this order wins.
type Grid struct {
	cells []Cell
}

// Add appends one cell to the grid.
func (g *Grid) Add(key Key, run func(ctx context.Context) (any, error)) {
	g.cells = append(g.cells, Cell{Key: key, Run: run})
}

// Len returns the number of declared cells.
func (g *Grid) Len() int { return len(g.cells) }

// Cells returns the declared cells in canonical order. The slice is the
// grid's own backing store and must not be mutated.
func (g *Grid) Cells() []Cell { return g.cells }

// --- the process-global worker pool ---

// pool is the global simulation token pool. Acquiring a token admits one
// cell onto a CPU; the channel's capacity is the worker count. SetWorkers
// swaps the channel: releases go back to the channel they were drawn
// from, so a resize never corrupts accounting (parallelism may briefly
// exceed the new width while old tokens drain, which only matters to
// schedulers, never to results).
var pool struct {
	mu     sync.RWMutex
	tokens chan struct{}
}

func init() {
	pool.tokens = make(chan struct{}, runtime.GOMAXPROCS(0))
}

// SetWorkers resizes the global pool to n workers; n < 1 restores the
// default, GOMAXPROCS. The new width applies to cells not yet admitted;
// running cells finish on their old tokens. Returns the previous width so
// callers (tests, benchmarks) can restore it.
func SetWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	pool.mu.Lock()
	prev := cap(pool.tokens)
	pool.tokens = make(chan struct{}, n)
	pool.mu.Unlock()
	return prev
}

// Workers returns the current width of the global pool.
func Workers() int {
	pool.mu.RLock()
	defer pool.mu.RUnlock()
	return cap(pool.tokens)
}

// acquire blocks until a pool token is free or ctx is canceled. It
// returns the channel the token was drawn from; release by receiving
// from exactly that channel.
func acquire(ctx context.Context) (chan struct{}, error) {
	pool.mu.RLock()
	tokens := pool.tokens
	pool.mu.RUnlock()
	select {
	case tokens <- struct{}{}:
		return tokens, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// --- the runner ---

// Run executes every cell of the grid on the global pool and returns the
// results in canonical (declaration) order. At most min(Workers, cells)
// worker goroutines serve one grid, and each must hold a global pool
// token while its cell computes, so concurrent grids share the pool
// rather than multiplying it.
//
// Determinism contract: results are merged positionally after all workers
// finish; cell errors do not abort sibling cells (every cell that can run
// does run, exactly as the serial loop would), and the returned error is
// the first per-cell error in canonical order regardless of completion
// order. Cancellation is the one fail-fast path: once ctx is canceled,
// unstarted cells are skipped and Run reports the wrapped context error —
// distinguishable with errors.Is(err, ctx.Err()) — in preference to any
// cell error, matching experiment.RunCtx's checkpoint semantics.
//
// A panicking cell is recovered and reported as that cell's error, so one
// broken simulation cannot take down a long-lived server process or leak
// a pool token. sink receives the runner's instrumentation (cell counts,
// queue depth, per-cell wall latency, the "plan" tracer track) and may be
// nil; like all obs plumbing it observes without steering — results are
// bit-identical with or without it.
func Run(ctx context.Context, g *Grid, sink *obs.Sink) ([]any, error) {
	cells := g.Cells()
	if len(cells) == 0 {
		return nil, nil
	}
	if ctx == nil {
		//lint:ignore ctxlint nil-ctx convenience default for library callers; a real caller ctx always wins
		ctx = context.Background()
	}
	results := make([]any, len(cells))
	errs := make([]error, len(cells))

	// Declare the grid to the live-progress aggregator: one experiment id
	// per cell, in canonical order, so consumers see cells-total jump to
	// its final value before the first cell runs and done/total stays
	// monotone.
	if sink != nil {
		exps := make([]string, len(cells))
		for i := range cells {
			exps[i] = cells[i].Key.Experiment
		}
		sink.GridStart(exps)
	}

	workers := Workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				// Skip-on-cancel checkpoint: a canceled grid stops
				// admitting cells; the per-index error is recorded only
				// so the merge can tell "skipped" from "never ran".
				exp := cells[i].Key.Experiment
				if err := ctx.Err(); err != nil {
					errs[i] = err
					sink.CellSkipped(exp)
					continue
				}
				sink.CellQueued(exp, 1)
				tokens, err := acquire(ctx)
				sink.CellQueued(exp, -1)
				if err != nil {
					errs[i] = err
					sink.CellSkipped(exp)
					continue
				}
				results[i], errs[i] = runCell(ctx, cells[i], i, sink)
				<-tokens
			}
		}()
	}
	wg.Wait()

	// Merge strictly in canonical order. The caller's cancellation wins
	// over every per-cell outcome: the whole grid was asked to stop.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: run aborted: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("plan: cell %s: %w", cells[i].Key, err)
		}
	}
	return results, nil
}

// runCell executes one cell under the runner's panic barrier and
// instrumentation. index is the cell's canonical position, which the
// tracer uses as the event timestamp so exported traces stay
// byte-identical run to run. ctx carries the request span (if any) that
// the lifecycle events are stamped with.
//
// The cell runs under pprof labels taken from its key (experiment,
// workload, column, variant), so `go tool pprof -tags` or `-tagfocus`
// splits any CPU profile of the process by cell. Labels reach the cell's
// context too; like the rest of the instrumentation they never steer.
func runCell(ctx context.Context, c Cell, index int, sink *obs.Sink) (result any, err error) {
	done := sink.CellStart(ctx, c.Key.Experiment, c.Key.String(), index)
	defer func() {
		if p := recover(); p != nil {
			result, err = nil, fmt.Errorf("cell panicked: %v", p)
		}
		done(err == nil)
	}()
	pprof.Do(ctx, c.Key.Labels(), func(ctx context.Context) { result, err = c.Run(ctx) })
	return result, err
}

// Labels returns the pprof labels a cell keyed k runs under: its
// experiment, workload, column and variant.
func (k Key) Labels() pprof.LabelSet {
	return pprof.Labels("experiment", k.Experiment, "workload", k.Workload,
		"column", k.Column, "variant", k.Variant)
}

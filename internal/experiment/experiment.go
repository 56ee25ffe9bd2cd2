// Package experiment reproduces every table and figure of the paper's
// evaluation, plus the Section 4 router statistics and the design
// ablations and diagnostics called out in DESIGN.md. Each experiment
// produces a stats.Table whose rows are the eight SPEC95-analogue
// benchmarks (in the paper's order) and whose columns are the swept
// machine configurations. Every per-workload experiment is declared as
// data and executed by one runner (runner.go); only the two tables without
// per-workload cells, table3.1 and table3.2, are written by hand.
package experiment

import (
	"context"
	"fmt"
	"sort"

	"valuepred/internal/obs"
	"valuepred/internal/stats"
	"valuepred/internal/tracestore"
	"valuepred/internal/workload"
)

// Params configures a run of any experiment.
type Params struct {
	// Seed drives workload input generation.
	Seed int64
	// TraceLen is the dynamic instruction count per benchmark. The paper
	// traced 100M instructions; the workloads here are periodic enough
	// that a few hundred thousand give stable statistics.
	TraceLen int
	// Workloads restricts the benchmark set (nil = all eight).
	Workloads []string
	// Store overrides the trace cache consulted by the run (nil = the
	// process-wide tracestore.Shared()). Mainly for tests that need an
	// isolated cache with fresh counters.
	Store *tracestore.Store
	// Obs, when non-nil, receives metrics and cycle-level trace events from
	// every simulated run. Each machine cell gets its own tracer track,
	// named after its key like "fig5.1/gcc/n=4/vp". Observability is
	// write-only: tables are bit-identical with Obs set or nil.
	Obs *obs.Sink
	// Stream selects the chunked streaming trace path (DESIGN.md §13):
	// traces are cached as compressed chunk sequences and every simulated
	// machine consumes a bounded window instead of a materialized flat
	// slice, so a run's peak memory is governed by the chunk pool, not
	// TraceLen. Tables are byte-identical to the materialized path (pinned
	// by the root stream tests for every registered experiment at workers
	// {1, 8}). Each workload's trace is decoded once per experiment and
	// lent to all of its cells in lockstep, so the trade is one decode per
	// record for memory, which is what paper-scale TraceLen values need.
	Stream bool

	// ctx carries the run's cancellation signal. It is unexported so that a
	// context can only enter through RunCtx/RunSeedsCtx, never get baked
	// into a stored Params value by accident; nil means "never canceled".
	ctx context.Context
}

// DefaultParams returns the parameters used by the benchmark harness.
func DefaultParams() Params {
	return Params{Seed: 1, TraceLen: 200_000}
}

func (p Params) workloads() []string {
	if len(p.Workloads) > 0 {
		return p.Workloads
	}
	return workload.Names()
}

// ctxErr reports whether the run's context has been canceled or timed out,
// wrapping the context error so callers can tell an aborted run apart from
// a validation failure with errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded). A Params without a context
// never aborts.
func (p Params) ctxErr() error {
	if p.ctx == nil {
		return nil
	}
	if err := p.ctx.Err(); err != nil {
		return fmt.Errorf("experiment: run aborted: %w", err)
	}
	return nil
}

func (p Params) validate() error {
	if p.TraceLen <= 0 {
		return fmt.Errorf("experiment: TraceLen must be positive, have %d", p.TraceLen)
	}
	for _, name := range p.workloads() {
		if _, ok := workload.Get(name); !ok {
			return fmt.Errorf("experiment: unknown workload %q", name)
		}
	}
	return repeated(p.workloads())
}

// repeated reports the first name that names lists twice: a table has
// one row per workload, and a repeated name would merge two rows' cells
// under one key.
func repeated(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return fmt.Errorf("experiment: workload %q listed twice", name)
		}
		seen[name] = true
	}
	return nil
}

// store returns the trace cache this run goes through.
func (p Params) store() *tracestore.Store {
	if p.Store != nil {
		return p.Store
	}
	return tracestore.Shared()
}

// track derives the observability sink for one cell's run, naming its
// tracer track after the cell's key with the empty parts skipped (e.g.
// "fig5.1/gcc/n=4/vp", "sec4/gcc/vp"). Returns nil — the fully disabled
// sink — when observability is off.
func (p Params) track(id, workload, column, variant string) *obs.Sink {
	if p.Obs == nil {
		return nil
	}
	name := id
	for _, part := range []string{workload, column, variant} {
		if part != "" {
			name += "/" + part
		}
	}
	return p.Obs.Track(name)
}

// entry is one registered experiment: a declaration run by decl.run, or,
// when d is nil, a hand-written table (tables.go) that reads no trace.
type entry struct {
	desc string
	run  func(Params) (*Table, error)
	d    *decl
}

var registry = map[string]entry{}

// registered mirrors the registry's keys as a slice so that no caller ever
// iterates the map itself: map iteration order is randomized per process,
// and an ordering that leaks into a table or an -all run breaks the
// determinism contract enforced by vplint's detlint.
var registered []string

func register(id string, e entry) {
	if _, dup := registry[id]; dup {
		panic("experiment: duplicate id " + id)
	}
	registry[id] = e
	registered = append(registered, id)
}

// declare registers per-workload experiments, each run by decl.run.
func declare(ds ...decl) {
	for _, d := range ds {
		register(d.id, entry{desc: d.desc, run: d.run, d: &d})
	}
}

// IDs returns the registered experiment identifiers, sorted.
func IDs() []string {
	ids := append([]string(nil), registered...)
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) (string, bool) {
	e, ok := registry[id]
	return e.desc, ok
}

// Run executes the experiment with the given id. The run's lifecycle is
// narrated into the event log (run.start/run.done with the id, seed and
// trace length) when the sink carries one; like all obs plumbing this is
// write-only and changes nothing about the table.
func Run(id string, p Params) (*Table, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	var t *Table
	err = p.narrate(id, func() (err error) {
		t, err = e.run(p)
		return err
	})
	return t, err
}

// lookup returns the experiment registered as id.
func lookup(id string) (entry, error) {
	e, ok := registry[id]
	if !ok {
		return entry{}, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	return e, nil
}

// narrate runs fn, one run of experiment id under p, between the
// run.start and run.done events.
func (p Params) narrate(id string, fn func() error) error {
	done := p.Obs.EventStart(p.ctx, "experiment", "run",
		obs.F("experiment", id), obs.F("seed", p.Seed), obs.F("tracelen", p.TraceLen))
	err := fn()
	done(err == nil)
	return err
}

// RunCtx executes the experiment with the given id under ctx. Cancellation
// is cooperative: the run checks the context at its checkpoints — when
// traces are requested, around each grid of cells, and between seeds — so
// an abort is observed at the next checkpoint rather than mid-simulation. An aborted run returns an error satisfying
// errors.Is(err, ctx.Err()), distinguishable from validation errors, which
// never wrap a context error. A nil ctx behaves like Run.
func RunCtx(ctx context.Context, id string, p Params) (*Table, error) {
	p.ctx = ctx
	return Run(id, p)
}

// RunSeedsCtx is RunSeeds under a cancellation context; see RunCtx for the
// checkpoint semantics.
func RunSeedsCtx(ctx context.Context, id string, p Params, seeds []int64) (*Table, error) {
	p.ctx = ctx
	return RunSeeds(id, p, seeds)
}

// preloadAsync warms the trace store for one seed in the background; any
// generation error is re-reported by the foreground Get that needs the
// trace, so it is safe to drop here. The preload runs as a plan grid on
// the shared worker pool — one launcher goroutine per seed, one cell per
// workload — so background warming competes for the same bounded tokens
// as foreground simulation instead of stampeding tracestore with a free
// goroutine per (seed, workload). A canceled run launches nothing: the
// context is checked both before spawning and again inside the goroutine
// (a cancel can land between the two), and the grid itself skips cells
// once the cancel lands, so an aborted RunSeeds does not burn emulators
// on traces nobody will read. The check is best-effort — a cancel
// arriving after a cell's generation starts cannot stop it, because the
// emulators themselves are context-free by design (DESIGN.md §9).
func (p Params) preloadAsync(seed int64) {
	if p.ctxErr() != nil {
		return
	}
	st := p.store()
	names := p.workloads()
	ps := p
	ps.Seed = seed
	go func() {
		if ps.ctxErr() != nil {
			return
		}
		g := ps.newGrid("preload")
		for _, name := range names {
			g.cell(name, "", "", func() (any, error) { return ps.load(st, name) })
		}
		g.run() //lint:ignore errlint any generation error is re-reported by the foreground Get
	}()
}

// RunSeeds executes the experiment once per seed and returns the
// element-wise average table. While one seed's machines simulate, the next
// seed's traces are generated in the background through the trace store, so
// multi-seed runs overlap emulation with simulation; repeated calls (e.g. a
// second experiment id over the same seeds) reuse every cached trace.
func RunSeeds(id string, p Params, seeds []int64) (*Table, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: no seeds given")
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	tables := make([]*Table, 0, len(seeds))
	for i, s := range seeds {
		if err := p.ctxErr(); err != nil {
			return nil, err
		}
		if i+1 < len(seeds) {
			p.preloadAsync(seeds[i+1])
		}
		ps := p
		ps.Seed = s
		t, err := Run(id, ps)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return stats.AverageTables(tables)
}

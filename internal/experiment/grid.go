package experiment

import (
	"context"

	"valuepred/internal/plan"
)

// grid is the experiment layer's builder over plan.Grid: a runner declares
// one cell per independent simulation, keyed by its position in the table
// (workload row, column label, variant within the cell), runs the grid on
// the shared plan pool, and reads the results back by key while emitting
// rows in the paper's presentation order. Declaration order is the
// canonical order plan uses for error reporting; the merge itself is
// keyed, so the declaring loop's shape never leaks into the table.
type grid struct {
	p  Params
	id string
	pg plan.Grid
}

// newGrid starts the cell declaration of one experiment run. id labels
// the cells' canonical keys ("fig3.1", or a synthetic id like "traces"
// for non-table grids).
func (p Params) newGrid(id string) *grid {
	return &grid{p: p, id: id}
}

// cell declares one cell. fn must be self-contained (build its own
// predictors and machines, read shared traces only): cells execute
// concurrently in arbitrary order on the shared pool.
func (g *grid) cell(workload, column, variant string, fn func() (any, error)) {
	g.pg.Add(g.p.key(g.id, workload, column, variant), func(context.Context) (any, error) { return fn() })
}

// pass declares one cell that runs a whole workload, keyed by the workload
// alone. fn gets the run's context.
func (g *grid) pass(workload string, fn func(context.Context) (any, error)) {
	g.pg.Add(g.p.key(g.id, workload, "", ""), fn)
}

// run executes the declared cells on the shared pool and returns the
// keyed results. A cancellation of the run's context wins over per-cell
// errors and keeps the experiment layer's "run aborted" wrapping, so
// callers still distinguish aborts with errors.Is(err, ctx.Err()).
func (g *grid) run() (*gridResults, error) {
	res, err := plan.Run(g.p.ctx, &g.pg, g.p.Obs)
	if err != nil {
		if cerr := g.p.ctxErr(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	out := g.p.newResults(g.id, len(res))
	for i, c := range g.pg.Cells() {
		out.byKey[c.Key] = res[i]
	}
	return out, nil
}

// key is the canonical key of experiment id's cell (workload, column,
// variant) in this run.
func (p Params) key(id, workload, column, variant string) plan.Key {
	return plan.Key{Experiment: id, Workload: workload, Column: column, Variant: variant, Seed: p.Seed}
}

// gridResults holds one grid run's results for keyed lookup. The map is
// only ever read by key — never iterated — so no map ordering can reach
// a table (the detlint contract).
type gridResults struct {
	p     Params
	id    string
	byKey map[plan.Key]any
}

// newResults returns an empty result set of experiment id, sized for n
// results.
func (p Params) newResults(id string, n int) *gridResults {
	return &gridResults{p: p, id: id, byKey: make(map[plan.Key]any, n)}
}

// get returns the result of the cell declared under (workload, column,
// variant). Asking for an undeclared key panics via the type assertion at
// the caller, which is the right failure mode for a programming error in
// a table merge.
func (r *gridResults) get(workload, column, variant string) any {
	return r.byKey[r.p.key(r.id, workload, column, variant)]
}

// put files v as the result of (workload, column, variant).
func (r *gridResults) put(workload, column, variant string, v any) {
	r.byKey[r.p.key(r.id, workload, column, variant)] = v
}

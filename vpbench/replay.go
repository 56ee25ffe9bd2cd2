package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/core"
	"valuepred/internal/dfg"
	"valuepred/internal/experiment"
	"valuepred/internal/fetch"
	"valuepred/internal/ideal"
	"valuepred/internal/pipeline"
	"valuepred/internal/plan"
	"valuepred/internal/predictor"
	"valuepred/internal/stats"
	"valuepred/internal/trace"
)

// A replay runs a workload's table cells again, outside experiment.Run: it
// declares the same cells — same plan keys, same machine configurations —
// in the benchmark's own plan.Grid, runs the grid with plan.Run, and wraps
// every module boundary inside a cell in a timing decorator (decor.go).
// Its merges rebuild each table's per-benchmark rows from the cell results,
// so a replay that drifted from the registered experiment shows up as a
// cell that differs from the end-to-end run's table.

// feed is one workload's trace in the representation the sweep uses.
type feed struct {
	recs []trace.Rec // flat sweeps
	seq  *chunk.Seq  // the streaming sweep
	n    int
}

// source returns a fresh source over the feed. A streaming source decodes
// through a fill-timed cursor whose time accumulates in a "chunk.decode"
// span under parent; a flat source stays a bare *trace.SliceSource.
func (f feed) source(c *cell, parent *modSpan) trace.Source {
	if f.seq == nil {
		return trace.NewSliceSource(f.recs[:f.n])
	}
	return timeFills(chunk.NewCursor(f.seq, f.n), f.seq.ChunkSize(), c.mod("chunk.decode", parent))
}

// replay is one pass's grids under construction and, after run, their
// results. Like a sweep pass, it runs one grid per experiment, back to
// back.
type replay struct {
	seed  int64
	names []string
	feeds map[string]feed
	exps  []*expGrid
	cur   *expGrid // the grid add declares into
	out   map[plan.Key]any
}

// expGrid is one experiment's cells and the merge that rebuilds its
// per-benchmark rows from their results.
type expGrid struct {
	id    string
	grid  plan.Grid
	cells []*cell
	rows  func() []stats.Row
	start time.Time
	wall  time.Duration
}

func newReplay(seed int64, names []string, feeds map[string]feed, exps []string) (*replay, error) {
	r := &replay{seed: seed, names: names, feeds: feeds, out: map[plan.Key]any{}}
	for _, id := range exps {
		declare, ok := replayed[id]
		if !ok {
			return nil, fmt.Errorf("no replay for experiment %s", id)
		}
		r.cur = &expGrid{id: id}
		r.cur.rows = declare(r)
		r.exps = append(r.exps, r.cur)
	}
	return r, nil
}

// cells returns the number of cells a pass runs.
func (r *replay) cellCount() int {
	n := 0
	for _, e := range r.exps {
		n += e.grid.Len()
	}
	return n
}

// replayed maps each experiment a sweep runs to the function declaring its
// cells; each returns the experiment's merge.
var replayed = map[string]func(*replay) func() []stats.Row{
	"fig3.1": (*replay).fig31,
	"fig3.3": func(r *replay) func() []stats.Row { return r.dfgRows("fig3.3", fig33Row) },
	"fig3.4": func(r *replay) func() []stats.Row { return r.dfgRows("fig3.4", fig34Row) },
	"fig3.5": func(r *replay) func() []stats.Row { return r.dfgRows("fig3.5", fig35Row) },
	"fig5.1": func(r *replay) func() []stats.Row { return r.sequential("fig5.1", newPerfect) },
	"fig5.2": func(r *replay) func() []stats.Row { return r.sequential("fig5.2", newTwoLevel) },
	"fig5.3": (*replay).fig53,
	"sec4":   (*replay).sec4,
}

func newPerfect() btb.Predictor  { return btb.NewPerfect() }
func newTwoLevel() btb.Predictor { return btb.NewTwoLevel(btb.DefaultTwoLevelConfig()) }

// add declares one cell, under the experiment's own key, in the grid being
// declared.
func (r *replay) add(exp, wl, col, variant string, run func(c *cell) (any, error)) {
	key := plan.Key{Experiment: exp, Workload: wl, Column: col, Variant: variant, Seed: r.seed}
	c := &cell{key: key.String()}
	r.cur.cells = append(r.cur.cells, c)
	r.cur.grid.Add(key, func(context.Context) (any, error) {
		c.start = time.Now()
		v, err := run(c)
		c.end = time.Now()
		return v, err
	})
}

func (r *replay) get(exp, wl, col, variant string) any {
	return r.out[plan.Key{Experiment: exp, Workload: wl, Column: col, Variant: variant, Seed: r.seed}]
}

// run executes the grids one after another on the shared plan pool.
func (r *replay) run(ctx context.Context) error {
	for _, e := range r.exps {
		e.start = time.Now()
		res, err := plan.Run(ctx, &e.grid, nil)
		e.wall = time.Since(e.start)
		if err != nil {
			return err
		}
		for i, c := range e.grid.Cells() {
			r.out[c.Key] = res[i]
		}
	}
	return nil
}

// --- machines inside a cell ---

// runIdeal runs the Section 3 machine, timing the predictor and (on the
// streaming sweep) the trace decoder under an "ideal" span.
func (c *cell) runIdeal(f feed, cfg ideal.Config, pred predictor.Predictor) (ideal.Result, error) {
	top := c.mod("ideal", nil)
	src := f.source(c, top)
	if pred != nil {
		cfg.Predictor = timePredictor(pred, c.mod("predictor", top))
	}
	start := time.Now()
	res, err := ideal.Run(src, cfg)
	top.add(time.Since(start))
	top.recs += int64(res.Insts)
	top.cycles += res.Cycles
	return res, err
}

// engineMaker builds a fetch engine over a source and branch predictor.
type engineMaker struct {
	name string // span name
	mk   func(trace.Source, btb.Predictor) fetch.Engine
}

func sequentialEngine(maxTaken int) engineMaker {
	return engineMaker{"fetch.sequential", func(s trace.Source, b btb.Predictor) fetch.Engine {
		return fetch.NewSequentialSource(s, b, maxTaken)
	}}
}

var traceCacheEngine = engineMaker{"fetch.tracecache", func(s trace.Source, b btb.Predictor) fetch.Engine {
	return fetch.NewTraceCacheSource(s, b, fetch.DefaultTCConfig())
}}

// runPipeline runs the Section 5 machine. The fetch engine, its branch
// predictor and the value predictor are timed; with network set the
// predictor sits behind a core.Network, whose own routing time stays in
// the pipeline's self time (pipeline takes the network by concrete type).
func (c *cell) runPipeline(f feed, em engineMaker, bp btb.Predictor, pred predictor.Predictor, network bool) (pipeline.Result, *core.Network, error) {
	top := c.mod("pipeline", nil)
	fm := c.mod(em.name, top)
	eng := timeEngine(em.mk(f.source(c, fm), timeBTB(bp, c.mod("btb", fm))), fm)
	cfg := pipeline.DefaultConfig()
	var net *core.Network
	if pred != nil {
		tp := timePredictor(pred, c.mod("predictor", top))
		if network {
			ncfg := core.DefaultConfig()
			ncfg.Predictor = tp
			var err error
			if net, err = core.NewNetwork(ncfg); err != nil {
				return pipeline.Result{}, nil, err
			}
			cfg.Network = net
		} else {
			cfg.Predictor = tp
		}
	}
	start := time.Now()
	res, err := pipeline.Run(eng, cfg)
	top.add(time.Since(start))
	top.recs += int64(res.Insts)
	top.cycles += res.Cycles
	return res, net, err
}

// runDFG runs one dependence-graph analysis.
func (c *cell) runDFG(f feed) *dfg.Analysis {
	top := c.mod("dfg", nil)
	src := f.source(c, top)
	start := time.Now()
	a := dfg.AnalyzeSource(src, dfg.Config{})
	top.add(time.Since(start))
	top.recs += int64(f.n)
	return a
}

// --- the experiments, as internal/experiment declares them ---

func widthLabel(w int) string { return fmt.Sprintf("BW=%d", w) }

func (r *replay) fig31() func() []stats.Row {
	for _, name := range r.names {
		f := r.feeds[name]
		for _, w := range experiment.Fig31Widths {
			col := widthLabel(w)
			r.add("fig3.1", name, col, "base", func(c *cell) (any, error) {
				return c.runIdeal(f, ideal.DefaultConfig(w), nil)
			})
			r.add("fig3.1", name, col, "vp", func(c *cell) (any, error) {
				return c.runIdeal(f, ideal.DefaultConfig(w), predictor.NewClassifiedStride())
			})
		}
	}
	return func() []stats.Row {
		var rows []stats.Row
		for _, name := range r.names {
			var cells []float64
			for _, w := range experiment.Fig31Widths {
				base := r.get("fig3.1", name, widthLabel(w), "base").(ideal.Result)
				vp := r.get("fig3.1", name, widthLabel(w), "vp").(ideal.Result)
				cells = append(cells, ideal.Speedup(base, vp))
			}
			rows = append(rows, stats.Row{Label: name, Cells: cells})
		}
		return rows
	}
}

// dfgRows declares one analysis cell per workload; row renders one row of
// the experiment's table from an analysis.
func (r *replay) dfgRows(exp string, row func(*dfg.Analysis) []float64) func() []stats.Row {
	for _, name := range r.names {
		f := r.feeds[name]
		r.add(exp, name, "", "dfg", func(c *cell) (any, error) { return c.runDFG(f), nil })
	}
	return func() []stats.Row {
		var rows []stats.Row
		for _, name := range r.names {
			rows = append(rows, stats.Row{Label: name, Cells: row(r.get(exp, name, "", "dfg").(*dfg.Analysis))})
		}
		return rows
	}
}

func fig33Row(a *dfg.Analysis) []float64 {
	// The lower bound of the histogram bucket holding the median arc.
	floors := []float64{1, 2, 3, 4, 8, 16, 32}
	median := 32.0
	var cum uint64
	for b := dfg.BucketDID1; b < dfg.NumBuckets; b++ {
		cum += a.Hist[b]
		if cum*2 >= a.Arcs {
			median = floors[b]
			break
		}
	}
	return []float64{a.AvgDID(), median}
}

func fig34Row(a *dfg.Analysis) []float64 {
	var cells []float64
	for b := dfg.BucketDID1; b < dfg.NumBuckets; b++ {
		cells = append(cells, 100*float64(a.Hist[b])/float64(a.Arcs))
	}
	return append(cells, 100*a.FracDIDAtLeast4())
}

func fig35Row(a *dfg.Analysis) []float64 {
	return []float64{
		100 * float64(a.Unpredictable) / float64(a.Arcs),
		100 * a.FracPredictableShort(),
		100 * a.FracPredictableLong(),
	}
}

func takenLabel(n int) string {
	if n < 0 {
		return "unlimited"
	}
	return fmt.Sprintf("n=%d", n)
}

// sequential is Figures 5.1 and 5.2: the realistic machine with sequential
// fetch over every taken-branch limit, without and with value prediction.
func (r *replay) sequential(exp string, mkBTB func() btb.Predictor) func() []stats.Row {
	for _, name := range r.names {
		f := r.feeds[name]
		for _, n := range experiment.Fig5Taken {
			col := takenLabel(n)
			r.add(exp, name, col, "base", func(c *cell) (any, error) {
				res, _, err := c.runPipeline(f, sequentialEngine(n), mkBTB(), nil, false)
				return res, err
			})
			r.add(exp, name, col, "vp", func(c *cell) (any, error) {
				res, _, err := c.runPipeline(f, sequentialEngine(n), mkBTB(), predictor.NewClassifiedStride(), false)
				return res, err
			})
		}
	}
	return func() []stats.Row {
		var rows []stats.Row
		for _, name := range r.names {
			var cells []float64
			for _, n := range experiment.Fig5Taken {
				base := r.get(exp, name, takenLabel(n), "base").(pipeline.Result)
				vp := r.get(exp, name, takenLabel(n), "vp").(pipeline.Result)
				cells = append(cells, pipeline.Speedup(base, vp))
			}
			rows = append(rows, stats.Row{Label: name, Cells: cells})
		}
		return rows
	}
}

// fig53 is Figure 5.3: the trace-cache machine under both branch
// predictors, value predictions delivered by the banked network.
func (r *replay) fig53() func() []stats.Row {
	labels := []string{"2levelBTB", "idealBTB"}
	makers := []func() btb.Predictor{newTwoLevel, newPerfect}
	for _, name := range r.names {
		f := r.feeds[name]
		for i, mk := range makers {
			r.add("fig5.3", name, labels[i], "base", func(c *cell) (any, error) {
				res, _, err := c.runPipeline(f, traceCacheEngine, mk(), nil, false)
				return res, err
			})
			r.add("fig5.3", name, labels[i], "vp", func(c *cell) (any, error) {
				res, _, err := c.runPipeline(f, traceCacheEngine, mk(), core.DefaultConfig().Predictor, true)
				return res, err
			})
		}
	}
	return func() []stats.Row {
		var rows []stats.Row
		for _, name := range r.names {
			var cells []float64
			for _, l := range labels {
				base := r.get("fig5.3", name, l, "base").(pipeline.Result)
				vp := r.get("fig5.3", name, l, "vp").(pipeline.Result)
				cells = append(cells, pipeline.Speedup(base, vp))
			}
			rows = append(rows, stats.Row{Label: name, Cells: cells})
		}
		return rows
	}
}

// sec4Out is the vp cell of the Section 4 table: the run and its network's
// router statistics.
type sec4Out struct {
	res   pipeline.Result
	stats core.Stats
}

// sec4 is the Section 4 router statistics table.
func (r *replay) sec4() func() []stats.Row {
	for _, name := range r.names {
		f := r.feeds[name]
		r.add("sec4", name, "", "base", func(c *cell) (any, error) {
			res, _, err := c.runPipeline(f, traceCacheEngine, btb.NewPerfect(), nil, false)
			return res, err
		})
		r.add("sec4", name, "", "vp", func(c *cell) (any, error) {
			res, net, err := c.runPipeline(f, traceCacheEngine, btb.NewPerfect(), core.DefaultConfig().Predictor, true)
			if err != nil {
				return nil, err
			}
			return sec4Out{res: res, stats: net.Stats()}, nil
		})
	}
	return func() []stats.Row {
		var rows []stats.Row
		for _, name := range r.names {
			base := r.get("sec4", name, "", "base").(pipeline.Result)
			vp := r.get("sec4", name, "", "vp").(sec4Out)
			s := vp.stats
			req := float64(s.Requests)
			rows = append(rows, stats.Row{Label: name, Cells: []float64{
				1000 * req / float64(r.feeds[name].n),
				100 * float64(s.MergedServed+s.MergedDenied) / req,
				100 * float64(s.Denied+s.MergedDenied) / req,
				100 * float64(s.HintDropped) / req,
				pipeline.Speedup(base, vp.res),
			}})
		}
		return rows
	}
}

// sameRows reports whether the replayed rows equal the end-to-end table's
// per-benchmark rows (every row but the average) label for label and cell
// for cell, bit for bit.
func sameRows(tab *stats.Table, rows []stats.Row) bool {
	var want []stats.Row
	for _, row := range tab.Rows {
		if row.Label != "average" {
			want = append(want, row)
		}
	}
	if len(want) != len(rows) {
		return false
	}
	for i := range rows {
		if want[i].Label != rows[i].Label || len(want[i].Cells) != len(rows[i].Cells) {
			return false
		}
		for j, v := range rows[i].Cells {
			if math.Float64bits(v) != math.Float64bits(want[i].Cells[j]) {
				return false
			}
		}
	}
	return true
}

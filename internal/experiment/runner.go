package experiment

// This file is the one runner behind every per-workload experiment. Each
// such experiment is a decl, a value: its table's title, columns and unit,
// the direct predictors whose recorded outcome streams its cells replay,
// one workload's named cells — (column, variant) pairs mapped to
// comparable machine specs — and a row function over the named results.
// decl.run executes any of them the same way: fetch the feeds, record the
// outcome streams and run the cells (over flat feeds one plan cell per
// key, over streamed ones one plan cell per workload that reads its trace
// once), and build the rows, the average row and the notes in
// presentation order. Apart from table3.2's walk-through, it is the only
// place that builds a fetch engine, a BTB, a prediction network or a
// machine configuration.

import (
	"context"
	"fmt"
	"runtime/pprof"

	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/core"
	"valuepred/internal/dfg"
	"valuepred/internal/fetch"
	"valuepred/internal/ideal"
	"valuepred/internal/obs"
	"valuepred/internal/pipeline"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// decl declares one per-workload experiment. Its table has one row per
// selected workload in presentation order, then the average row, the
// static notes and the aggregate note.
type decl struct {
	id, desc string
	title    string
	columns  []string
	unit     string
	// preds are the direct predictors whose outcome streams the cells
	// replay, recorded once per workload, in this order.
	preds []vpSpec
	// cells are one workload's cells, in declaration order.
	cells []cell
	// row computes one workload's table cells from its named results.
	row   func(r row) []float64
	notes []string
	// When contrib is set, agg is the run-wide aggregate note (notes.go)
	// and contrib gives each workload's raw contribution to it.
	agg     NoteAgg
	contrib func(r row) float64
}

// cell is one named cell of a workload: its key's column and variant, and
// the run it makes.
type cell struct {
	col, variant string
	m            machine
}

// machine specifies a cell's run as a plain comparable value. kind picks
// the ideal machine, the Section 5 pipeline or one of two trace analyses;
// the fields a kind does not read stay zero.
type machine struct {
	kind  string // "ideal", "pipeline", "dfg" or "classes"
	width int    // the ideal machine's fetch width
	// vp names the declaration's predictor whose recorded stream the cell
	// replays; "" predicts no values directly.
	vp string
	// fetch is the pipeline's engine: "seq" (taken branches per cycle
	// limited to taken, -1 for unlimited), "cb", "tc" or "tc+partial". btb
	// names its branch predictor (see newBTB).
	fetch string
	taken int
	btb   string
	// banks > 0 delivers value predictions through a banked network over
	// the network predictor netVP: "" (classified stride), "hybrid" or
	// "hybrid+hints".
	banks int
	netVP string
	// The remaining pipeline settings; zero keeps DefaultConfig's.
	rob     bool // a window slot is held until commit
	penalty int  // extra value-misprediction penalty, in cycles
	nomem   bool // loads do not depend on earlier stores
	loadLat int  // load latency in cycles (0 means 1)
}

// vpSpec names a direct value predictor; mk builds a fresh one for a
// workload's feed.
type vpSpec struct {
	name string
	mk   func(f feed) predictor.Predictor
}

// classifiedStride is the paper's Section 3 and 5 predictor: an infinite
// stride table gated by 2-bit saturating counters.
var classifiedStride = vpSpec{"stride+2bc", func(feed) predictor.Predictor { return predictor.NewClassifiedStride() }}

// recording is one workload's outcome stream under one predictor, with the
// accuracy of the pass that recorded it.
type recording struct {
	outs *predictor.Outcomes
	acc  predictor.Accuracy
}

// pipeRun is a pipeline cell's result, with its network's router
// statistics when it had one.
type pipeRun struct {
	pipeline.Result
	net core.Stats
}

// run executes d under p. A direct predictor's outcomes depend on the
// trace alone (DESIGN.md §7), so each is recorded once per workload, with
// the predictor's name as column and "outcomes" as variant, and every cell
// of the run replays its workload's stream instead of driving a predictor
// again. The streams live for this one run. Flat feeds run one plan cell
// per key (runCells); streamed feeds run one plan cell per workload that
// reads its trace once (runPasses). Either way each result is filed under
// its cell's key, and the rows, the average row and the aggregate note are
// built from them in presentation order, so the float64 addition order
// never depends on cell scheduling.
func (d decl) run(p Params) (*Table, error) {
	feeds, err := p.feeds()
	if err != nil {
		return nil, err
	}
	names := p.workloads()
	results := d.runCells
	if p.Stream {
		results = d.runPasses
	}
	recs, res, err := results(p, names, feeds)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: d.title, RowHeader: "benchmark", Columns: append([]string(nil), d.columns...), Unit: d.unit}
	agg := d.agg
	for _, name := range names {
		r := row{name: name, n: p.TraceLen, res: res, recs: recs}
		t.AddRow(name, d.row(r)...)
		if d.contrib != nil {
			agg.Contribs = append(agg.Contribs, NoteContrib{Workload: name, Value: d.contrib(r)})
		}
	}
	t.AppendAverage()
	for _, note := range d.notes {
		t.AddNote("%s", note)
	}
	if d.contrib != nil {
		agg.render(t)
		if p.aggs != nil {
			*p.aggs = append(*p.aggs, agg)
		}
	}
	return t, nil
}

// runCells runs d over flat feeds with one plan cell per key: the outcome
// streams as a grid of their own, then every machine and analysis cell
// over a fresh source of its workload's trace. It returns the recordings
// and the cells' results.
func (d decl) runCells(p Params, names []string, feeds map[string]feed) (recs, res *gridResults, err error) {
	if len(d.preds) > 0 {
		g := p.newGrid(d.id)
		for _, name := range names {
			f := feeds[name]
			for _, s := range d.preds {
				g.cell(name, s.name, "outcomes", func() (any, error) {
					return p.record(s, f, f.source(), predictor.NewOutcomes(f.Len())), nil
				})
			}
		}
		if recs, err = g.run(); err != nil {
			return nil, nil, err
		}
	}
	g := p.newGrid(d.id)
	for _, name := range names {
		f := feeds[name]
		for _, c := range d.cells {
			g.cell(name, c.col, c.variant, func() (any, error) {
				var outs *predictor.Outcomes
				if c.m.vp != "" {
					outs = recs.get(name, c.m.vp, "outcomes").(recording).outs
				}
				return c.m.run(f, f.source(), outs, p.track(d.id, name, c.col, c.variant))
			})
		}
	}
	res, err = g.run()
	return recs, res, err
}

// runPasses runs d over streamed feeds with one plan cell per workload,
// its pass (see pass), and files each recording and cell result under the
// key runCells gives it.
func (d decl) runPasses(p Params, names []string, feeds map[string]feed) (recs, res *gridResults, err error) {
	g := p.newGrid(d.id)
	for _, name := range names {
		g.pass(name, func(ctx context.Context) (any, error) { return d.pass(ctx, p, name, feeds[name]) })
	}
	passes, err := g.run()
	if err != nil {
		return nil, nil, err
	}
	recs, res = p.newResults(d.id, len(names)*len(d.preds)), p.newResults(d.id, len(names)*len(d.cells))
	for _, name := range names {
		out := passes.get(name, "", "").([]any)
		for i, s := range d.preds {
			recs.put(name, s.name, "outcomes", out[i])
		}
		for i, c := range d.cells {
			res.put(name, c.col, c.variant, out[len(d.preds)+i])
		}
	}
	return recs, res, nil
}

// pass runs one workload's recorders and then its cells as consumers of
// one chunk.Share of f's trace (DESIGN.md §13), so the trace is decoded
// once for all of them, and returns their results in that order. Every
// decoded block reaches the recorders first, so a cell never replays an
// outcome not yet recorded. Each consumer runs under its cell's pprof
// labels. The first failing cell in declaration order fails the pass,
// under its own key.
func (d decl) pass(ctx context.Context, p Params, name string, f feed) ([]any, error) {
	out := make([]any, len(d.preds)+len(d.cells))
	errs := make([]error, len(d.cells))
	outs := make(map[string]*predictor.Outcomes, len(d.preds))
	consumers := make([]func(trace.Source), 0, len(out))
	labeled := func(col, variant string, fn func(trace.Source)) {
		labels := p.key(d.id, name, col, variant).Labels()
		consumers = append(consumers, func(src trace.Source) {
			pprof.Do(ctx, labels, func(context.Context) { fn(src) })
		})
	}
	for i, s := range d.preds {
		o := predictor.NewOutcomes(f.Len())
		outs[s.name] = o
		labeled(s.name, "outcomes", func(src trace.Source) { out[i] = p.record(s, f, src, o) })
	}
	for i, c := range d.cells {
		labeled(c.col, c.variant, func(src trace.Source) {
			out[len(d.preds)+i], errs[i] = c.m.run(f, src, outs[c.m.vp], p.track(d.id, name, c.col, c.variant))
		})
	}
	cur := chunk.NewCursor(f.seq, f.n)
	if err := chunk.Share(ctx, cur, consumers...); err != nil {
		return nil, err
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", p.key(d.id, name, d.cells[i].col, d.cells[i].variant), err)
		}
	}
	return out, nil
}

// record records s's outcome stream over src into o and adds the pass's
// accuracy to p.Obs's predictor counters: it looks up and updates every
// value-producing record once, and every predictor is confident only when
// it has a value.
func (p Params) record(s vpSpec, f feed, src trace.Source, o *predictor.Outcomes) recording {
	acc := o.Record(s.mk(f), src)
	reg := p.Obs.Registry() // nil, and its counters nil, when Obs is nil
	reg.Counter("predictor.lookups").Add(acc.Eligible)
	reg.Counter("predictor.lookup.has_value").Add(acc.Attempted)
	reg.Counter("predictor.lookup.confident").Add(acc.ConfidentAttempted)
	reg.Counter("predictor.updates").Add(acc.Eligible)
	return recording{outs: o, acc: acc}
}

// run makes the cell's run over src, a source of f's trace, replaying outs
// when the cell predicts values directly and reporting to the tracer
// track o.
func (m machine) run(f feed, src trace.Source, outs *predictor.Outcomes, o *obs.Sink) (any, error) {
	switch m.kind {
	case "dfg":
		return dfg.AnalyzeSource(src, dfg.Config{}), nil
	case "classes":
		return predictor.EvaluateByClassSource(predictor.NewStride(), src), nil
	case "ideal":
		cfg := ideal.DefaultConfig(m.width)
		cfg.Outcomes, cfg.Obs = outs, o
		return ideal.Run(src, cfg)
	case "pipeline":
	default:
		panic("experiment: unknown machine kind " + m.kind)
	}
	cfg := pipeline.DefaultConfig()
	cfg.HoldUntilCommit = m.rob
	cfg.ValuePenalty = m.penalty
	cfg.IncludeMemoryDeps = !m.nomem
	cfg.LoadLatency = max(m.loadLat, 1)
	cfg.Outcomes, cfg.Obs = outs, o
	if m.banks > 0 {
		var err error
		if cfg.Network, err = m.network(f); err != nil {
			return nil, err
		}
	}
	res, err := pipeline.Run(m.engine(src), cfg)
	if err != nil {
		return nil, err
	}
	out := pipeRun{Result: res}
	if cfg.Network != nil {
		out.net = cfg.Network.Stats()
	}
	return out, nil
}

// engine builds the pipeline's fetch engine over src.
func (m machine) engine(src trace.Source) fetch.Engine {
	bp := newBTB(m.btb)
	switch m.fetch {
	case "seq":
		return fetch.NewSequentialSource(src, bp, m.taken)
	case "cb":
		return fetch.NewCollapsingBufferSource(src, bp)
	case "tc", "tc+partial":
	default:
		panic("experiment: unknown fetch engine " + m.fetch)
	}
	cfg := fetch.DefaultTCConfig()
	cfg.PartialMatching = m.fetch == "tc+partial"
	return fetch.NewTraceCacheSource(src, bp, cfg)
}

// newBTB builds the branch predictor named name: a 2-level PAp BTB of one
// of three sizes, gshare, or the perfect predictor ("ideal").
func newBTB(name string) btb.Predictor {
	switch name {
	case "btb-2k":
		return btb.NewTwoLevel(btb.DefaultTwoLevelConfig())
	case "btb-512":
		return btb.NewTwoLevel(btb.TwoLevelConfig{Entries: 512, Ways: 2, HistoryBits: 4})
	case "btb-8k/h6":
		return btb.NewTwoLevel(btb.TwoLevelConfig{Entries: 8192, Ways: 4, HistoryBits: 6})
	case "gshare":
		return btb.NewGShare()
	case "ideal":
		return btb.NewPerfect()
	}
	panic("experiment: unknown BTB " + name)
}

// network builds the cell's banked prediction network (Section 4), one
// port per bank, over a fresh network predictor.
func (m machine) network(f feed) (*core.Network, error) {
	cfg := core.Config{Banks: m.banks, PortsPerBank: 1}
	switch m.netVP {
	case "hybrid":
		cfg.Predictor = predictor.NewHybrid(1024, nil)
	case "hybrid+hints":
		cfg.Hints = profile(f)
		cfg.Predictor = predictor.NewHybrid(1024, cfg.Hints)
	case "":
		cfg.Predictor = predictor.NewClassifiedStride()
	default:
		panic("experiment: unknown network predictor " + m.netVP)
	}
	return core.NewNetwork(cfg)
}

// profile derives opcode hints from the first quarter of f's trace.
func profile(f feed) *predictor.ProfileHints {
	return predictor.ProfileSource(f.prefix(f.Len()/4), 0.6)
}

// row is one workload's named results, as a declaration's row function
// reads them.
type row struct {
	name string
	n    int          // records in the workload's trace
	res  *gridResults // the cells
	recs *gridResults // the outcome streams
}

func (r row) get(col, variant string) any            { return r.res.get(r.name, col, variant) }
func (r row) ideal(col, variant string) ideal.Result { return r.get(col, variant).(ideal.Result) }
func (r row) pipe(col, variant string) pipeRun       { return r.get(col, variant).(pipeRun) }

// acc returns the accuracy of the pass that recorded pred's stream.
func (r row) acc(pred string) predictor.Accuracy {
	return r.recs.get(r.name, pred, "outcomes").(recording).acc
}

// speedup returns the VP speedup of cell (col, variant) over the base cell
// of column baseCol.
func (r row) speedup(baseCol, col, variant string) float64 {
	if base, ok := r.get(baseCol, "base").(ideal.Result); ok {
		return ideal.Speedup(base, r.ideal(col, variant))
	}
	return pipeline.Speedup(r.pipe(baseCol, "base").Result, r.pipe(col, variant).Result)
}

// speedups returns, per column, the speedup of its vp cell over the base
// cell of the same column, or of column "" when shared.
func (r row) speedups(cols []string, shared bool) []float64 {
	var out []float64
	for _, col := range cols {
		base := col
		if shared {
			base = ""
		}
		out = append(out, r.speedup(base, col, "vp"))
	}
	return out
}

// pairs declares a base and a vp cell per column: ms[i] runs in the base
// cell and vp(ms[i]) in the vp cell.
func pairs(cols []string, ms []machine, vp func(machine) machine) []cell {
	var cs []cell
	for i, col := range cols {
		cs = append(cs, cell{col, "base", ms[i]}, cell{col, "vp", vp(ms[i])})
	}
	return cs
}

// overBase declares one base cell, in column "", then a vp cell per column.
func overBase(base machine, cols []string, vps []machine) []cell {
	cs := []cell{{"", "base", base}}
	for i, col := range cols {
		cs = append(cs, cell{col, "vp", vps[i]})
	}
	return cs
}

// idealAt is the ideal machine at fetch width w.
func idealAt(w int) machine { return machine{kind: "ideal", width: w} }

// seq is the pipeline behind sequential fetch of up to taken taken
// branches per cycle, predicted by the BTB named btb.
func seq(taken int, btb string) machine {
	return machine{kind: "pipeline", fetch: "seq", taken: taken, btb: btb}
}

// tc is the pipeline behind the trace cache, predicted by the BTB named btb.
func tc(btb string) machine { return machine{kind: "pipeline", fetch: "tc", btb: btb} }

// replaying returns m replaying the recorded stream of predictor pred.
func (m machine) replaying(pred string) machine {
	m.vp = pred
	return m
}

// banked returns m delivering value predictions through a network of n
// banks over the network predictor netVP.
func (m machine) banked(n int, netVP string) machine {
	m.banks, m.netVP = n, netVP
	return m
}

// strideVP is the vp cell of the paper's figures: m replaying the
// classified stride predictor's stream.
func strideVP(m machine) machine { return m.replaying(classifiedStride.name) }

package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/core"
	"valuepred/internal/experiment"
	"valuepred/internal/fetch"
	"valuepred/internal/ideal"
	"valuepred/internal/pipeline"
	"valuepred/internal/plan"
	"valuepred/internal/stats"
	"valuepred/internal/trace"
	"valuepred/internal/tracestore"
	"valuepred/internal/workload"
)

const (
	// flatLen is the per-benchmark trace length of the materialized sweeps;
	// streamLen, twice as long, is the streaming sweep's — long enough to
	// show the chunk path's memory bound, short enough for ten passes in a
	// run.
	flatLen   = 50_000
	streamLen = 100_000
	// setupsPerPass is how many times a run builds its traces into a fresh
	// store, each time from a collected heap, before each timed pass;
	// setup_s is the median. Spreading the set-ups over the whole run,
	// rather than timing them in one burst at its start, samples the same
	// stretches of machine speed as the passes do.
	setupsPerPass = 3
	// minPasses is the fewest passes a sweep run measures, however long
	// they take.
	minPasses = 2
)

// sweepSpec is one sweep workload: experiments run back to back, as
// `vpsim -experiment ...` runs them, over all eight benchmarks at the
// default plan pool width.
type sweepSpec struct {
	name     string
	exps     []string
	stream   bool // traces through the compressed chunk path (Params.Stream)
	traceLen int
}

var sweeps = map[string]sweepSpec{
	"sec3":   {name: "sec3", exps: []string{"fig3.1", "fig3.3", "fig3.4", "fig3.5"}, traceLen: flatLen},
	"sec5":   {name: "sec5", exps: []string{"fig5.1", "fig5.2", "fig5.3", "sec4"}, traceLen: flatLen},
	"stream": {name: "stream", exps: []string{"fig3.1", "fig5.2"}, stream: true, traceLen: streamLen},
}

// paperFig31 is the paper's Figure 3.1 average row at BW=4, 8, 16, 32 and
// 40 (EXPERIMENTS.md), the reference of fig31_paper_gap_pp. The Section 5
// figures have no numeric reference to compare with: their numbers are
// reported unvalidated, with no error figure.
var paperFig31 = []float64{0, 8, 33, 70, 80}

// newStore builds the sweep's traces into a fresh store: emulation, plus
// compression on the streaming sweep.
func (s sweepSpec) newStore(seed int64) (*tracestore.Store, error) {
	st := tracestore.New(tracestore.DefaultLimit)
	if s.stream {
		return st, st.PreloadStream(workload.Names(), seed, s.traceLen, 0)
	}
	return st, st.Preload(workload.Names(), seed, s.traceLen)
}

// feeds looks up every benchmark's trace in st.
func (s sweepSpec) feeds(st *tracestore.Store, seed int64) (map[string]feed, error) {
	out := map[string]feed{}
	for _, name := range workload.Names() {
		f := feed{n: s.traceLen}
		var err error
		if s.stream {
			f.seq, err = st.GetStream(name, seed, s.traceLen, 0)
		} else {
			f.recs, err = st.Get(name, seed, s.traceLen)
		}
		if err != nil {
			return nil, err
		}
		out[name] = f
	}
	return out, nil
}

// run is the workload's entry point for both modes.
func (s sweepSpec) run(o opts) (*report, error) {
	rep := newReport(s.traceLen)
	var setup dist
	// setUp builds a fresh store from a collected heap and times it. The
	// caller drops its previous store first, so that store is collected.
	setUp := func() (*tracestore.Store, error) {
		runtime.GC()
		start := time.Now()
		st, err := s.newStore(o.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup.addDur(time.Since(start), time.Second)
		return st, nil
	}
	st, err := setUp()
	if err != nil {
		return nil, err
	}
	feeds, err := s.feeds(st, o.seed)
	if err != nil {
		return nil, err
	}
	// The replay's grid is the record of which cells a pass runs.
	decl, err := newReplay(o.seed, workload.Names(), feeds, s.exps)
	if err != nil {
		return nil, err
	}
	recsPerPass := float64(decl.cellCount() * s.traceLen)

	chk := newChecker(s.name, o.seed, s.traceLen)
	if chk.recorded() {
		rep.notef("tables checked against recorded digests (seed %d, tracelen %d)", o.seed, s.traceLen)
	} else {
		rep.notef("no recorded digests for seed %d: every pass and the replay are checked against the first pass", o.seed)
	}
	p := experiment.Params{Seed: o.seed, TraceLen: s.traceLen, Store: st, Stream: s.stream}
	if o.traced {
		return rep, s.traced(o, rep, p, chk)
	}

	// A first, untimed pass lets the pools and caches the simulators
	// keep between runs fill, as they have in any process that has run a
	// table before; its tables are checked like every other pass's.
	var walls dist
	s.pass(p, chk, rep)
	var last map[string]*stats.Table
	start := time.Now()
	for walls.n() < minPasses || time.Since(start) < time.Duration(o.seconds)*time.Second {
		for i := 0; i < setupsPerPass; i++ {
			p.Store = nil
			if p.Store, err = setUp(); err != nil {
				return nil, err
			}
		}
		wall, tabs := s.pass(p, chk, rep)
		walls.addDur(wall, time.Second)
		last = tabs
	}
	setupMed, n := setup.pct(50)
	rep.set("setup_s", setupMed, n)
	wall, n := walls.pct(50)
	rep.set("wall_s", wall, n)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss, 1)
	rep.set("sim_minst_per_s", recsPerPass*float64(walls.n())/walls.sum()/1e6, walls.n())
	if tab, ok := last["fig3.1"]; ok {
		gap, err := fig31Gap(tab)
		if err != nil {
			return nil, err
		}
		rep.set("fig31_paper_gap_pp", gap, 1)
	}
	for _, id := range s.exps {
		if strings.HasPrefix(id, "fig5") {
			rep.notef("Section 5 figures have no numeric reference in the paper: reported unvalidated, no error figure")
			break
		}
	}
	return rep, nil
}

// pass runs the experiments back to back, then checks every table. It
// returns the pass's wall time (the experiment.Run calls only) and the
// tables by experiment.
func (s sweepSpec) pass(p experiment.Params, chk *checker, rep *report) (time.Duration, map[string]*stats.Table) {
	tabs := map[string]*stats.Table{}
	errs := map[string]error{}
	start := time.Now()
	for _, id := range s.exps {
		tabs[id], errs[id] = experiment.Run(id, p)
	}
	wall := time.Since(start)
	for _, id := range s.exps {
		rep.attempted++
		if errs[id] != nil {
			rep.failed++
			rep.notef("%s: %v", id, errs[id])
			continue
		}
		rep.checked++
		ok, err := chk.check(id, tabs[id])
		if err != nil || !ok {
			rep.failed++
			rep.mismatches++
			rep.notef("%s: table differs from its reference (%v)", id, err)
		}
	}
	return wall, tabs
}

// fig31Gap is the mean absolute gap, in percentage points, between the
// table's average row and the paper's Figure 3.1 averages.
func fig31Gap(tab *stats.Table) (float64, error) {
	row, ok := tab.Row("average")
	if !ok || len(row.Cells) != len(paperFig31) {
		return 0, fmt.Errorf("fig3.1 table has no %d-column average row", len(paperFig31))
	}
	var sum float64
	for i, v := range row.Cells {
		d := v - paperFig31[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(paperFig31)), nil
}

// traced is the --trace 1 run: untraced and traced passes alternate until
// the time is up, the traced replay's cells are compared with the
// untraced tables, and the spans are summarized into the per-layer
// metrics.
func (s sweepSpec) traced(o opts, rep *report, p experiment.Params, chk *checker) error {
	if err := s.measureSupply(o.seed, rep); err != nil {
		return err
	}
	calibrate()
	tr := newTracer()
	var untraced, tracedWalls dist
	var hits, misses dist
	var results []any
	var cellsPerPass int
	start := time.Now()
	for untraced.n() == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		before := p.Store.Stats()
		wall, tabs := s.pass(p, chk, rep)
		after := p.Store.Stats()
		untraced.addDur(wall, time.Second)
		hits.add(float64(after.Hits - before.Hits))
		misses.add(float64(after.Misses - before.Misses))

		r, passWall, err := s.tracedPass(tr, p)
		if err != nil {
			return err
		}
		tracedWalls.addDur(passWall, time.Second)
		cellsPerPass = r.cellCount()
		for _, e := range r.exps {
			for _, c := range e.grid.Cells() {
				results = append(results, r.out[c.Key])
			}
			rep.attempted++
			tab := tabs[e.id]
			if tab == nil {
				rep.failed++
				continue
			}
			rep.checked++
			if !sameRows(tab, e.rows()) {
				rep.failed++
				rep.mismatches++
				rep.notef("replayed %s cells differ from the end-to-end table", e.id)
			}
		}
	}
	h, n := hits.pct(50)
	rep.set("tracestore.hits", h, n)
	m, n := misses.pct(50)
	rep.set("tracestore.misses", m, n)
	if s.name == "sec5" {
		if err := measureCore(p, rep); err != nil {
			return err
		}
	}
	summarize(tr, cellsPerPass, results, rep)
	u, _ := untraced.pct(50)
	t, n := tracedWalls.pct(50)
	rep.set("trace.overhead_ratio", t/u, n)
	return nil
}

// tracedPass runs one traced replay: the trace lookups and the grids, each
// recorded as spans under one pass span.
func (s sweepSpec) tracedPass(tr *tracer, p experiment.Params) (*replay, time.Duration, error) {
	passStart := time.Now()
	feeds, err := s.feeds(p.Store, p.Seed)
	if err != nil {
		return nil, 0, err
	}
	lookup := time.Since(passStart)
	r, err := newReplay(p.Seed, workload.Names(), feeds, s.exps)
	if err != nil {
		return nil, 0, err
	}
	if err := r.run(context.Background()); err != nil {
		return nil, 0, err
	}
	passWall := time.Since(passStart)
	pass := tr.add(span{Name: "pass " + s.name, Start: tr.at(passStart), Dur: passWall})
	tr.add(span{Parent: pass, Name: "tracestore", Start: tr.at(passStart), Dur: lookup, Calls: int64(len(feeds))})
	for _, e := range r.exps {
		grid := tr.add(span{Parent: pass, Name: "grid " + e.id, Start: tr.at(e.start), Dur: e.wall})
		for _, c := range e.cells {
			tr.record(grid, c)
		}
	}
	return r, passWall, nil
}

// measureSupply times the trace supply on its own: draining the emulator,
// and on the streaming sweep compressing a materialized trace with
// chunk.Build and the compressed size per record.
func (s sweepSpec) measureSupply(seed int64, rep *report) error {
	var recs int
	var emu, build time.Duration
	var bytes, built int
	for _, name := range workload.Names() {
		flat, d, err := emulate(name, seed, s.traceLen)
		if err != nil {
			return err
		}
		recs += len(flat)
		emu += d
		if !s.stream {
			continue
		}
		start := time.Now()
		q, err := chunk.Build(trace.NewSliceSource(flat), s.traceLen, 0)
		if err != nil {
			return err
		}
		build += time.Since(start)
		bytes += q.Bytes()
		built += q.Len()
	}
	rep.set("emu.minst_per_s", float64(recs)/emu.Seconds()/1e6, len(workload.Names()))
	if built > 0 {
		rep.set("chunk.build_ns_per_rec", float64(build.Nanoseconds())/float64(built), len(workload.Names()))
		rep.set("chunk.bytes_per_rec", float64(bytes)/float64(built), len(workload.Names()))
	}
	return nil
}

// emulate drains the named workload's emulator for n records and returns
// them with the time the draining took.
func emulate(name string, seed int64, n int) ([]trace.Rec, time.Duration, error) {
	src, err := workload.Open(name, seed, n)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	recs := trace.Collect(src, n)
	d := time.Since(start)
	return recs, d, src.Err()
}

// measureCore times the banked prediction network on its own, because
// pipeline.Run takes it by concrete type: trace-cache fetch groups of every
// benchmark (the Section 4 machine's ideal-BTB engine at full width) are
// collected first, then replayed through Network.ProcessGroup with each
// group's values trained afterwards, as the pipeline does.
func measureCore(p experiment.Params, rep *report) error {
	var groups int
	var busy time.Duration
	for _, name := range workload.Names() {
		recs, err := p.Store.Get(name, p.Seed, p.TraceLen)
		if err != nil {
			return err
		}
		eng := fetch.NewTraceCache(recs, btb.NewPerfect(), fetch.DefaultTCConfig())
		var pcs, vals []uint64
		var ends []int
		for {
			g, ok := eng.NextGroup(pipeline.DefaultConfig().Width)
			if !ok {
				break
			}
			for _, r := range g.Recs {
				if r.WritesValue() {
					pcs = append(pcs, r.PC)
					vals = append(vals, r.Val)
				}
			}
			ends = append(ends, len(pcs))
		}
		net, err := core.NewNetwork(core.DefaultConfig())
		if err != nil {
			return err
		}
		lo := 0
		for _, hi := range ends {
			start := time.Now()
			net.ProcessGroup(pcs[lo:hi])
			busy += time.Since(start)
			for i := lo; i < hi; i++ {
				net.Update(pcs[i], vals[i])
			}
			lo = hi
		}
		groups += len(ends)
	}
	rep.set("core.ns_per_group", float64(busy.Nanoseconds())/float64(groups), groups)
	return nil
}

// summarize turns the spans of every traced pass into the per-layer
// metrics.
func summarize(tr *tracer, cellsPerPass int, results []any, rep *report) {
	self := selfTimes(tr.spans)
	byID := map[int]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	type agg struct {
		dur, self   time.Duration
		calls, recs int64
		cycles      uint64
		parentRecs  int64
	}
	mods := map[string]*agg{}
	var passes, cellSpans, waits dist
	var passWall, gridCap, cellBusy, attributed time.Duration
	workers := time.Duration(plan.Workers())
	for _, s := range tr.spans {
		switch {
		case strings.HasPrefix(s.Name, "pass "):
			passes.add(1)
			passWall += s.Dur
		case strings.HasPrefix(s.Name, "grid "):
			gridCap += s.Dur * workers
		case strings.HasPrefix(s.Name, "cell "):
			cellSpans.addDur(s.Dur, time.Millisecond)
			waits.addDur(s.Start-byID[s.Parent].Start, time.Millisecond)
			cellBusy += s.Dur
		default:
			a := mods[s.Name]
			if a == nil {
				a = &agg{}
				mods[s.Name] = a
			}
			a.dur += s.Dur
			a.self += self[s.ID]
			a.calls += s.Calls
			a.recs += s.Recs
			a.cycles += s.Cycles
			parent := byID[s.Parent]
			a.parentRecs += parent.Recs
			if s.Name == "tracestore" || strings.HasPrefix(parent.Name, "cell ") {
				attributed += s.Dur
			}
		}
	}
	perRec := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	get := func(name string) *agg {
		if a := mods[name]; a != nil {
			return a
		}
		return &agg{}
	}
	np := passes.n()
	for _, name := range []string{"fetch.sequential", "fetch.tracecache"} {
		a := get(name)
		rep.set(name+".self_ns_per_rec", perRec(a.self, a.recs), int(a.calls))
	}
	b := get("btb")
	rep.set("btb.ns_per_op", perRec(b.dur, b.calls), int(b.calls))
	pr := get("predictor")
	rep.set("predictor.ns_per_op", perRec(pr.dur, pr.calls), int(pr.calls))
	if pr.parentRecs > 0 {
		rep.set("predictor.ops_per_rec", float64(pr.calls)/float64(pr.parentRecs), int(pr.calls))
	}
	d := get("chunk.decode")
	rep.set("chunk.decode_ns_per_rec", perRec(d.dur, d.recs), int(d.calls))
	for _, name := range []string{"ideal", "pipeline"} {
		a := get(name)
		rep.set(name+".self_ns_per_rec", perRec(a.self, a.recs), int(a.calls))
		rep.set(name+".ns_per_cycle", perRec(a.dur, int64(a.cycles)), int(a.calls))
		rep.set(name+".busy_s", a.dur.Seconds()/float64(np), np)
	}
	g := get("dfg")
	rep.set("dfg.ns_per_rec", perRec(g.dur, g.recs), int(g.calls))

	var used, correct uint64
	for _, r := range results {
		if res, ok := r.(ideal.Result); ok {
			used += res.Used
			correct += res.Correct
		}
	}
	if correct > 0 {
		rep.set("ideal.used_per_correct", float64(used)/float64(correct), len(results))
	}
	rep.set("plan.cells", float64(cellsPerPass), np)
	wait, n := waits.pct(50)
	rep.set("plan.queue_wait_ms", wait, n)
	p50, n := cellSpans.pct(50)
	rep.set("plan.cell_p50_ms", p50, n)
	pmax, n := cellSpans.pct(100)
	rep.set("plan.cell_max_ms", pmax, n)
	if gridCap > 0 {
		rep.set("plan.utilization", float64(cellBusy)/float64(gridCap), n)
	}
	if passWall > 0 {
		rep.set("experiment.unattributed_ratio", 1-float64(attributed)/float64(passWall*workers), np)
	}
	rep.notef("traced passes: %d; per-layer times include the clock reads of the decorators (see trace.overhead_ratio)", np)
}

// peakRSSMB returns the process's peak resident set (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

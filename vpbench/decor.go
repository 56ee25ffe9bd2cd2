package main

import (
	"time"

	"valuepred/internal/btb"
	"valuepred/internal/fetch"
	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// The decorators below time the calls one module makes into another
// through the interfaces they already pass each other (per call, a sample:
// see modSpan). Each keeps every
// capability its callee is type-asserted for: a predictor that is a
// predictor.StrideSource stays one (the banked network expands merged
// requests through it), an engine that accepts an observability sink still
// does, and a chunk cursor keeps Len and Err. Flat trace sources are never
// wrapped: fetch recognizes *trace.SliceSource and takes its zero-copy
// path, which a wrapper would hide.

// timedPredictor times Lookup and Update.
type timedPredictor struct {
	p predictor.Predictor
	m *modSpan
}

// timedStridePredictor is timedPredictor for a predictor.StrideSource.
// LastAndStride is passed through untimed: it is the network's read of the
// table, not a lookup or an update, and lands in the caller's self time.
type timedStridePredictor struct {
	timedPredictor
	ss predictor.StrideSource
}

// timePredictor wraps p so its Lookup and Update calls accumulate into m.
func timePredictor(p predictor.Predictor, m *modSpan) predictor.Predictor {
	tp := timedPredictor{p: p, m: m}
	if ss, ok := p.(predictor.StrideSource); ok {
		return &timedStridePredictor{timedPredictor: tp, ss: ss}
	}
	return &tp
}

func (t *timedPredictor) Name() string { return t.p.Name() }

func (t *timedPredictor) Lookup(pc uint64) predictor.Prediction {
	if !t.m.sample() {
		return t.p.Lookup(pc)
	}
	start := time.Now()
	pr := t.p.Lookup(pc)
	t.m.addSample(time.Since(start))
	return pr
}

func (t *timedPredictor) Update(pc uint64, actual uint64) {
	if !t.m.sample() {
		t.p.Update(pc, actual)
		return
	}
	start := time.Now()
	t.p.Update(pc, actual)
	t.m.addSample(time.Since(start))
}

func (t *timedStridePredictor) LastAndStride(pc uint64) (uint64, int64, bool) {
	return t.ss.LastAndStride(pc)
}

// timedBTB times branch-predictor calls.
type timedBTB struct {
	b btb.Predictor
	m *modSpan
}

func timeBTB(b btb.Predictor, m *modSpan) btb.Predictor { return &timedBTB{b: b, m: m} }

func (t *timedBTB) Name() string { return t.b.Name() }

func (t *timedBTB) Predict(pc uint64, actualTaken bool, actualTarget uint64) btb.Prediction {
	if !t.m.sample() {
		return t.b.Predict(pc, actualTaken, actualTarget)
	}
	start := time.Now()
	p := t.b.Predict(pc, actualTaken, actualTarget)
	t.m.addSample(time.Since(start))
	return p
}

func (t *timedBTB) Update(pc uint64, taken bool, target uint64) {
	if !t.m.sample() {
		t.b.Update(pc, taken, target)
		return
	}
	start := time.Now()
	t.b.Update(pc, taken, target)
	t.m.addSample(time.Since(start))
}

// timedEngine times fetch-group delivery and counts the records delivered.
type timedEngine struct {
	e fetch.Engine
	m *modSpan
}

func timeEngine(e fetch.Engine, m *modSpan) fetch.Engine { return &timedEngine{e: e, m: m} }

func (t *timedEngine) NextGroup(maxInsts int) (fetch.Group, bool) {
	var g fetch.Group
	var ok bool
	if !t.m.sample() {
		g, ok = t.e.NextGroup(maxInsts)
	} else {
		start := time.Now()
		g, ok = t.e.NextGroup(maxInsts)
		t.m.addSample(time.Since(start))
	}
	t.m.recs += int64(len(g.Recs))
	return g, ok
}

func (t *timedEngine) Stats() fetch.Stats { return t.e.Stats() }

// SetObs keeps fetch.ObsSetter: pipeline.Run attaches its sink through it.
func (t *timedEngine) SetObs(s *obs.Sink) { fetch.Instrument(t.e, s) }

var _ fetch.ObsSetter = (*timedEngine)(nil)

// fillTimedSource times the calls on a chunk cursor that decode a block.
// Every block but the last holds the same number of records, so exactly
// the calls that start a block (and the final, empty one) run the decoder;
// timing only those keeps the clock out of the per-record path. The
// module span counts the records served.
type fillTimedSource struct {
	src   cursor
	every int64 // records per block
	m     *modSpan
}

// cursor is what fillTimedSource needs from *chunk.Cursor.
type cursor interface {
	trace.Source
	Len() int
	Err() error
}

func timeFills(src cursor, every int, m *modSpan) *fillTimedSource {
	return &fillTimedSource{src: src, every: int64(every), m: m}
}

func (s *fillTimedSource) Next() (trace.Rec, bool) {
	var r trace.Rec
	var ok bool
	if s.m.recs%s.every != 0 {
		r, ok = s.src.Next()
	} else {
		start := time.Now()
		r, ok = s.src.Next()
		s.m.add(time.Since(start))
	}
	if ok {
		s.m.recs++
	}
	return r, ok
}

// Len keeps the cursor's length hint (trace.Collect sizes by it).
func (s *fillTimedSource) Len() int { return s.src.Len() }

// Err keeps the cursor's decode-error report.
func (s *fillTimedSource) Err() error { return s.src.Err() }

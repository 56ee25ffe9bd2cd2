package main

import (
	"sort"
	"time"
)

// span is one timed interval of a traced replay: a pass, a cell, or a
// module inside a cell. A module span stands for every call the cell made
// into that module: Dur is their summed time, and the span is laid out
// right after its earlier siblings inside its parent, which is exact for
// the purpose of self time because one cell calls its modules from one
// goroutine, one call at a time.
type span struct {
	ID     int
	Parent int // 0 for a pass
	Name   string
	Start  time.Duration // since the tracer's epoch
	Dur    time.Duration
	Calls  int64  // calls into the module (module spans)
	Recs   int64  // trace records the module consumed (module spans)
	Cycles uint64 // simulated cycles (machine module spans)
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// tracer keeps a run's spans in memory; they are summarized when the run
// ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records s under a fresh id and returns the id.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) at(ts time.Time) time.Duration { return ts.Sub(t.epoch) }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap each other
// (cells running in parallel under a pass) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := map[int][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur - covered(s, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.end(), parent.end())
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// modSpan accumulates one module's calls inside one cell. Each cell owns
// its modSpans, so the decorators that fill them need no locking.
//
// A call that costs tens of nanoseconds cannot be timed on its own without
// the clock reads dwarfing it, so the per-call decorators time a sample of
// calls — one in sampleOdds, picked by a xorshift generator so that no
// regular call pattern aliases with the pick — and the module's time is
// estimated as the mean sampled call, less the cost of an empty timed
// interval (clockBias), times the number of calls. Whole-call spans (a
// machine run, a block decode) are timed directly.
type modSpan struct {
	name       string
	parent     *modSpan // nil: a direct child of the cell
	dur        time.Duration
	calls      int64
	sampled    int64
	sampledDur time.Duration
	recs       int64
	cycles     uint64 // simulated cycles (machine modules)
	rng        uint32
}

// sampleOdds is the inverse sampling rate of per-call timing.
const sampleOdds = 8

// clockBias is the measured cost of an empty timed interval; calibrate
// sets it before a traced run.
var clockBias time.Duration

// calibrate measures clockBias.
func calibrate() {
	const n = 1 << 20
	var sum time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		sum += time.Since(start)
	}
	clockBias = sum / n
}

// add records one directly timed call.
func (m *modSpan) add(d time.Duration) {
	m.dur += d
	m.calls++
}

// sample counts a call and reports whether to time it.
func (m *modSpan) sample() bool {
	m.calls++
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 17
	m.rng ^= m.rng << 5
	return m.rng%sampleOdds == 0
}

// addSample records the time of one sampled call.
func (m *modSpan) addSample(d time.Duration) {
	m.sampled++
	m.sampledDur += d
}

// total is the module's time: the directly timed calls plus, for sampled
// modules, the estimate from the samples.
func (m *modSpan) total() time.Duration {
	if m.sampled == 0 {
		return m.dur
	}
	per := float64(m.sampledDur)/float64(m.sampled) - float64(clockBias)
	if per < 0 {
		per = 0
	}
	return m.dur + time.Duration(per*float64(m.calls))
}

// cell is one replayed plan cell: its key's text, its wall interval and
// the module spans recorded inside it.
type cell struct {
	key        string
	start, end time.Time
	mods       []*modSpan
}

// mod opens a module span inside the cell.
func (c *cell) mod(name string, parent *modSpan) *modSpan {
	m := &modSpan{name: name, parent: parent, rng: 2463534242}
	c.mods = append(c.mods, m)
	return m
}

// record adds the cell and its module spans under parent (a pass span) and
// returns the cell span's id.
func (t *tracer) record(parent int, c *cell) int {
	id := t.add(span{Parent: parent, Name: "cell " + c.key, Start: t.at(c.start), Dur: c.end.Sub(c.start)})
	ids := map[*modSpan]int{}
	next := map[int]time.Duration{} // next free offset inside each parent span
	for _, m := range c.mods {
		p := id
		if m.parent != nil {
			p = ids[m.parent]
		}
		start, ok := next[p]
		if !ok {
			start = t.spans[p-1].Start
		}
		d := m.total()
		ids[m] = t.add(span{Parent: p, Name: m.name, Start: start, Dur: d, Calls: m.calls, Recs: m.recs, Cycles: m.cycles})
		next[p] = start + d
	}
	return id
}

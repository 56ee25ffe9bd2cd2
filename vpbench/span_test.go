package main

import (
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, Dur: 100 * ms},
		// Two cells in parallel, overlapping on [20, 50): together they
		// cover [10, 80) of the pass.
		{ID: 2, Parent: 1, Name: "cell a", Start: 10 * ms, Dur: 40 * ms},
		{ID: 3, Parent: 1, Name: "cell b", Start: 20 * ms, Dur: 60 * ms},
		// A module inside cell a, and one inside it.
		{ID: 4, Parent: 2, Name: "pipeline", Start: 10 * ms, Dur: 30 * ms},
		{ID: 5, Parent: 4, Name: "predictor", Start: 10 * ms, Dur: 12 * ms},
		// A child that overruns its parent counts only inside it.
		{ID: 6, Parent: 3, Name: "ideal", Start: 70 * ms, Dur: 30 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 30 * ms, // 100 - |[10, 80)|
		2: 10 * ms, // 40 - 30
		3: 50 * ms, // 60 - |[70, 80)|
		4: 18 * ms, // 30 - 12
		5: 12 * ms, // a leaf is all self time
		6: 30 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%s) = %v, want %v", spans[id-1].Name, self[id], w)
		}
	}
}

func TestRecordLaysModulesOutInsideTheirCell(t *testing.T) {
	tr := newTracer()
	c := &cell{key: "fig5.2/go/n=1/vp/seed=1", start: tr.epoch.Add(5 * ms), end: tr.epoch.Add(105 * ms)}
	top := c.mod("pipeline", nil)
	top.add(90 * ms)
	fetch := c.mod("fetch.sequential", top)
	fetch.add(20 * ms)
	b := c.mod("btb", fetch)
	b.add(5 * ms)
	pred := c.mod("predictor", top)
	pred.add(30 * ms)
	tr.record(0, c)

	self := selfTimes(tr.spans)
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
	}
	wantSelf := map[string]time.Duration{
		"cell " + c.key:    10 * ms, // 100 - 90
		"pipeline":         40 * ms, // 90 - 20 - 30
		"fetch.sequential": 15 * ms, // 20 - 5
		"btb":              5 * ms,
		"predictor":        30 * ms,
	}
	for name, w := range wantSelf {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("no span %q in %+v", name, tr.spans)
		}
		if self[s.ID] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[s.ID], w)
		}
	}
	if p := byName["predictor"]; p.Start != byName["fetch.sequential"].end() {
		t.Errorf("predictor starts at %v, want right after fetch at %v", p.Start, byName["fetch.sequential"].end())
	}
}

func TestSampledTimeScalesToAllCalls(t *testing.T) {
	saved := clockBias
	defer func() { clockBias = saved }()
	clockBias = 10 * time.Nanosecond

	m := &modSpan{rng: 2463534242}
	for i := 0; i < 8000; i++ {
		if m.sample() {
			m.addSample(60 * time.Nanosecond)
		}
	}
	if m.calls != 8000 {
		t.Fatalf("calls = %d, want 8000", m.calls)
	}
	if m.sampled < 800 || m.sampled > 1200 {
		t.Fatalf("sampled %d of 8000 calls, want about one in %d", m.sampled, sampleOdds)
	}
	// Each sampled call took 60ns of which 10ns is the clock: 50ns x 8000.
	if got, want := m.total(), 400*time.Microsecond; got != want {
		t.Errorf("total = %v, want %v", got, want)
	}
	direct := &modSpan{}
	direct.add(3 * ms)
	if direct.total() != 3*ms {
		t.Errorf("directly timed total = %v, want 3ms", direct.total())
	}
}

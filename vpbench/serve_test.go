package main

import (
	"bytes"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"valuepred/internal/experiment"
	"valuepred/internal/serve"
	"valuepred/internal/tracestore"
)

func TestRequestSequenceIsSeeded(t *testing.T) {
	a, b := requestSeq(4, 4, 8, 3), requestSeq(4, 4, 8, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two request sequences")
	}
	if reflect.DeepEqual(a, requestSeq(5, 4, 8, 3)) {
		t.Fatal("two seeds gave the same request sequence")
	}
	var async, newKey int
	hits := map[int]int{}
	for _, op := range a {
		if op.async {
			async++
		}
		if op.newKey {
			newKey++
		}
		hits[op.key]++
	}
	// Every seed sends each experiment and benchmark about the same share
	// of requests.
	mix := func(seq []sop) []float64 {
		m := make([]float64, 32)
		for _, op := range seq {
			m[op.key/3] += 1 / float64(len(seq))
		}
		return m
	}
	for seed := int64(5); seed < 10; seed++ {
		for e, s := range mix(requestSeq(seed, 4, 8, 3)) {
			if d := s - mix(a)[e]; d < -0.05 || d > 0.05 {
				t.Errorf("seed %d sends experiment-benchmark pair %d %.2f of the requests, seed 4 sends %.2f", seed, e, s, mix(a)[e])
			}
		}
	}
	share := func(n int) float64 { return float64(n) / float64(len(a)) }
	if s := share(async); s < asyncShare/2 || s > asyncShare*2 {
		t.Errorf("async share %.3f, want about %.2f", s, asyncShare)
	}
	if s := share(newKey); s < newKeyShare/2 || s > newKeyShare*2 {
		t.Errorf("new-key share %.3f, want about %.2f", s, newKeyShare)
	}
	if len(warmKeys(1)) <= serve.DefaultCacheEntries || len(hits) <= serve.DefaultCacheEntries {
		t.Errorf("%d warm keys, %d of them requested: the table LRU holds %d, so the disk tier would carry nothing",
			len(warmKeys(1)), len(hits), serve.DefaultCacheEntries)
	}
}

func TestPassWallsSplitCompletions(t *testing.T) {
	t0 := time.Now()
	var ends []time.Time
	for i := 9; i >= 0; i-- { // out of order, 1s apart
		ends = append(ends, t0.Add(time.Duration(i)*time.Second))
	}
	d := passWalls(ends, 3)
	// Passes end at completions 3, 6 and 9 (0-based 2, 5, 8): the first
	// has no start, the next two take 3s each.
	if v, n := d.pct(50); n != 2 || v != 3 {
		t.Fatalf("pass walls median %v over %d passes, want 3 over 2", v, n)
	}
}

// TestServeLoopChecksBodies runs a short closed loop against a real server
// on a few small keys, then shows that a body differing from the
// experiment.Run rendering is counted as a failure.
func TestServeLoopChecksBodies(t *testing.T) {
	srv, err := startServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	keys := []skey{
		{"fig3.3", "li", 2, 2_000},
		{"sec4", "go", 2, 2_000},
		{"fig3.1", "perl", 3, 2_000},
	}
	clients := []*client{newClient(srv.base), newClient(srv.base)}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	if err := warm(clients, keys); err != nil {
		t.Fatal(err)
	}
	seq := []sop{{key: 0}, {key: 1, async: true}, {key: 2, newKey: true}, {key: 2}}
	var newKey atomic.Int64
	l := newLoop(seq, keys, &newKey)
	l.drive(clients, 300*time.Millisecond)
	if l.attempted == 0 || l.failed != 0 {
		t.Fatalf("loop attempted %d, failed %d: %v", l.attempted, l.failed, l.notes)
	}
	if l.roundTrips.n() == 0 || newKey.Load() == 0 {
		t.Fatalf("loop made %d round trips and %d new keys; want both", l.roundTrips.n(), newKey.Load())
	}
	// A request is a sync GET (the replies carrying X-Cache) or a whole
	// round trip; its submit, polls and result fetch are operations only.
	requests := l.roundTrips.n()
	for _, d := range l.byCache {
		requests += d.n()
	}
	if len(l.ends) != requests || l.lat.n() != requests || l.attempted <= requests {
		t.Fatalf("%d completions and %d latencies for %d requests in %d exchanges; want completions = latencies = requests < exchanges",
			len(l.ends), l.lat.n(), requests, l.attempted)
	}
	rep := newReport(2_000)
	if err := tally([]*loop{l}, rep); err != nil {
		t.Fatal(err)
	}
	if rep.checked == 0 || rep.mismatches != 0 {
		t.Fatalf("checked %d bodies, %d mismatched", rep.checked, rep.mismatches)
	}

	l.bodies[keys[0]][bodyDigest([]byte("not the table"))] = 1
	rep = newReport(2_000)
	if err := tally([]*loop{l}, rep); err != nil {
		t.Fatal(err)
	}
	if rep.mismatches != 1 || rep.failed != 1 {
		t.Fatalf("a wrong body gave %d mismatches and %d failures, want 1 and 1", rep.mismatches, rep.failed)
	}
}

// TestRefusalMakesRunIncorrect shows that one refused exchange makes the run
// incorrect even when every table body that came back matched.
func TestRefusalMakesRunIncorrect(t *testing.T) {
	k := skey{"fig3.3", "li", 2, 2_000}
	tab, err := experiment.Run(k.exp, experiment.Params{
		Seed: k.seed, TraceLen: k.traceLen, Workloads: []string{k.workload}, Store: tracestore.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := tab.Render(&body); err != nil {
		t.Fatal(err)
	}
	l := newLoop(nil, nil, nil)
	l.record(reply{status: http.StatusOK, body: body.Bytes()}, &k)
	rep := newReport(k.traceLen)
	if err := tally([]*loop{l}, rep); err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("a matching body alone: correct false (checked %d, failed %d)", rep.checked, rep.failed)
	}

	l.record(reply{status: http.StatusTooManyRequests}, nil)
	rep = newReport(k.traceLen)
	if err := tally([]*loop{l}, rep); err != nil {
		t.Fatal(err)
	}
	if rep.checked != 1 || rep.failed != 1 || rep.correct() {
		t.Fatalf("after a 429: checked %d, failed %d, correct %v; want 1, 1, false", rep.checked, rep.failed, rep.correct())
	}
}

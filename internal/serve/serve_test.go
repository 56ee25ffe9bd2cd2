package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valuepred/internal/experiment"
	"valuepred/internal/stats"
	"valuepred/internal/tracestore"
)

// newTestServer returns a Server with an isolated trace store and fast
// limits, plus its httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = tracestore.New(0)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = time.Minute
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// get fetches path and returns the status, headers and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// errorCode decodes the structured error body and returns error.code.
func errorCode(t *testing.T, body string) string {
	t.Helper()
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body is not structured JSON: %v\nbody: %s", err, body)
	}
	if e.Error.Message == "" {
		t.Errorf("error body has no message: %s", body)
	}
	return e.Error.Code
}

// counter reads a serve counter from the server's registry snapshot.
func counter(s *Server, name string) uint64 {
	v, _ := s.reg.Snapshot().Counter(name)
	return v
}

const tinyQuery = "?tracelen=3000&workloads=gcc"

// TestServedTableMatchesVpsimRendering pins byte-identity between the
// service and the CLI: the text body served for fig5.1 must equal the
// rendering vpsim produces for the same Params (vpsim is a thin wrapper
// over experiment.Run + Table.Render, the exact calls made here).
func TestServedTableMatchesVpsimRendering(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body: %s", status, body)
	}
	tab, err := experiment.Run("fig5.1", experiment.Params{
		Seed: 1, TraceLen: 3000, Workloads: []string{"gcc"},
		Store: tracestore.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := tab.Render(&want); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Errorf("served table differs from vpsim rendering:\nserved:\n%s\nwant:\n%s", body, want.String())
	}

	// CSV format renders the same table the CSV way.
	_, hdr, csvBody := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery+"&format=csv")
	var wantCSV strings.Builder
	if err := tab.RenderCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if csvBody != wantCSV.String() {
		t.Errorf("served CSV differs:\n%s\nwant:\n%s", csvBody, wantCSV.String())
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv Content-Type = %q", ct)
	}

	// fig3.4 over ten ijpeg records, which have no dependence arcs: the
	// chart renders and the JSON body decodes to the table vpsim computes.
	const noArcs = "/v1/experiments/fig3.4?tracelen=10&workloads=ijpeg"
	tab, err = experiment.Run("fig3.4", experiment.Params{
		Seed: 1, TraceLen: 10, Workloads: []string{"ijpeg"}, Store: tracestore.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantChart strings.Builder
	if err := tab.RenderChart(&wantChart); err != nil {
		t.Fatal(err)
	}
	if status, _, chart := get(t, ts, noArcs+"&format=chart"); status != http.StatusOK || chart != wantChart.String() {
		t.Errorf("chart: status %d, body:\n%s\nwant:\n%s", status, chart, wantChart.String())
	}
	status, _, body = get(t, ts, noArcs+"&format=json")
	var served stats.Table
	if err := json.Unmarshal([]byte(body), &served); status != http.StatusOK || err != nil {
		t.Fatalf("json: status %d, decode error %v, body: %q", status, err, body)
	}
	if !reflect.DeepEqual(served.Rows, tab.Rows) {
		t.Errorf("json rows = %v, want %v", served.Rows, tab.Rows)
	}
}

// TestCoalescing is the acceptance check: 8 concurrent identical fig5.1
// requests trigger exactly one simulation, the other seven coalesce onto
// it, and every client receives the identical body. The run hook holds the
// single leader inside the (real) simulation until all followers have
// registered, making the coalescing window deterministic.
func TestCoalescing(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	inner := s.run
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		close(started) // exactly one leader may enter, or this panics
		<-release
		return inner(ctx, id, rr)
	}

	const clients = 8
	var wg sync.WaitGroup
	bodies := make([]string, clients)
	statuses := make([]int, clients)
	sources := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, hdr, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery)
			statuses[i], bodies[i], sources[i] = status, body, hdr.Get("X-Cache")
		}(i)
	}

	<-started
	// Wait until the seven followers have joined the flight before letting
	// the leader finish.
	deadline := time.Now().Add(10 * time.Second)
	for counter(s, "serve.coalesced") < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never joined: coalesced = %d", counter(s, "serve.coalesced"))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := counter(s, "serve.simulations"); got != 1 {
		t.Errorf("simulations = %d, want 1", got)
	}
	if got := counter(s, "serve.coalesced"); got != clients-1 {
		t.Errorf("coalesced = %d, want %d", got, clients-1)
	}
	var misses, coalesced int
	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("client %d body differs from client 0", i)
		}
		switch sources[i] {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("client %d: unexpected X-Cache %q", i, sources[i])
		}
	}
	if misses != 1 || coalesced != clients-1 {
		t.Errorf("X-Cache split = %d miss / %d coalesced, want 1/%d", misses, coalesced, clients-1)
	}
}

// TestCacheHitAndEviction covers the completed-table LRU: a repeat request
// is a hit (in any format — the table is cached, not the rendering), and a
// one-entry cache evicts least-recently-used tables.
func TestCacheHitAndEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})

	if _, hdr, _ := get(t, ts, "/v1/experiments/table3.1"+tinyQuery); hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	if _, hdr, _ := get(t, ts, "/v1/experiments/table3.1"+tinyQuery+"&format=md"); hdr.Get("X-Cache") != "hit" {
		t.Errorf("repeat request X-Cache = %q, want hit", hdr.Get("X-Cache"))
	}
	if hits, sims := counter(s, "serve.cache_hit"), counter(s, "serve.simulations"); hits != 1 || sims != 1 {
		t.Errorf("cache_hit = %d, simulations = %d, want 1, 1", hits, sims)
	}

	// A second id evicts the first from the one-entry cache.
	get(t, ts, "/v1/experiments/fig3.3"+tinyQuery)
	if _, hdr, _ := get(t, ts, "/v1/experiments/table3.1"+tinyQuery); hdr.Get("X-Cache") != "miss" {
		t.Errorf("evicted request X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	if sims := counter(s, "serve.simulations"); sims != 3 {
		t.Errorf("simulations = %d, want 3", sims)
	}
}

// TestTimeout drives the real cancellation path: a 1ns server timeout
// expires before the first experiment checkpoint, so the run aborts with
// context.DeadlineExceeded and the client sees 504.
func TestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: time.Nanosecond})
	status, _, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", status, body)
	}
	if code := errorCode(t, body); code != "timeout" {
		t.Errorf("error code = %q, want timeout", code)
	}
	if got := counter(s, "serve.timeouts"); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

// TestSaturation fills the one simulation slot and checks that a request
// for different parameters is shed with 429 + Retry-After, while a request
// for the same parameters still coalesces.
func TestSaturation(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	inner := s.run
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		close(started)
		<-release
		return inner(ctx, id, rr)
	}

	firstDone := make(chan string, 1)
	go func() {
		status, _, _ := get(t, ts, "/v1/experiments/table3.1"+tinyQuery)
		firstDone <- fmt.Sprintf("%d", status)
	}()
	<-started

	status, hdr, body := get(t, ts, "/v1/experiments/fig3.3"+tinyQuery)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", status, body)
	}
	if code := errorCode(t, body); code != "saturated" {
		t.Errorf("error code = %q, want saturated", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 reply has no Retry-After header")
	}
	if got := counter(s, "serve.rejected"); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	close(release)
	if got := <-firstDone; got != "200" {
		t.Errorf("in-flight request finished with status %s", got)
	}
}

// TestBadParams checks the structured error body for every rejected input.
func TestBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/experiments/nonesuch", http.StatusNotFound, "unknown_experiment"},
		{"/v1/experiments/fig5.1?tracelen=0", http.StatusBadRequest, "bad_params"},
		{"/v1/experiments/fig5.1?tracelen=999999999", http.StatusBadRequest, "bad_params"},
		{"/v1/experiments/fig5.1?tracelen=abc", http.StatusBadRequest, "bad_params"},
		{"/v1/experiments/fig5.1?seed=abc", http.StatusBadRequest, "bad_params"},
		{"/v1/experiments/fig5.1?seeds=0", http.StatusBadRequest, "bad_params"},
		{"/v1/experiments/fig5.1?seeds=9999", http.StatusBadRequest, "bad_params"},
		{"/v1/experiments/fig5.1?workloads=bogus", http.StatusBadRequest, "bad_params"},
		{"/v1/experiments/fig5.1?workloads=gcc,gcc", http.StatusBadRequest, "bad_params"},
		{"/v1/experiments/fig5.1?format=banana", http.StatusBadRequest, "bad_params"},
	}
	for _, c := range cases {
		status, _, body := get(t, ts, c.path)
		if status != c.status {
			t.Errorf("%s: status = %d, want %d (body: %s)", c.path, status, c.status, body)
			continue
		}
		if code := errorCode(t, body); code != c.code {
			t.Errorf("%s: error code = %q, want %q", c.path, code, c.code)
		}
	}
}

// TestGracefulDrain checks the shutdown sequence: after BeginDrain the
// health check fails and new simulations are refused, but a request already
// in flight completes with its full body before http.Server.Shutdown
// returns — the library half of vpserve's SIGTERM handling.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	inner := s.run
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		close(started)
		<-release
		return inner(ctx, id, rr)
	}

	type result struct {
		status int
		body   string
	}
	inFlight := make(chan result, 1)
	go func() {
		status, _, body := get(t, ts, "/v1/experiments/table3.1"+tinyQuery)
		inFlight <- result{status, body}
	}()
	<-started

	s.BeginDrain()
	if status, _, _ := get(t, ts, "/healthz"); status != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", status)
	}
	status, _, body := get(t, ts, "/v1/experiments/fig3.3"+tinyQuery)
	if status != http.StatusServiceUnavailable || errorCode(t, body) != "draining" {
		t.Errorf("new simulation during drain: status = %d, body = %s", status, body)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- ts.Config.Shutdown(context.Background()) }()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	res := <-inFlight
	if res.status != http.StatusOK || !strings.Contains(res.body, "Table 3.1") {
		t.Errorf("in-flight request during drain: status = %d, body = %s", res.status, res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestPanicRecovery checks the middleware converts a handler panic into a
// structured 500 and counts it.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		panic("simulated handler bug")
	}
	status, _, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", status, body)
	}
	if code := errorCode(t, body); code != "panic" {
		t.Errorf("error code = %q, want panic", code)
	}
	if got := counter(s, "serve.panics"); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
}

// TestPanicReleasesSlot is the regression test for panic cleanup: a
// panicking simulation must settle its flight and release its semaphore
// slot, so that with MaxConcurrent=1 a later request for a different key
// is not shed with 429 and a retry of the panicked key re-simulates
// instead of parking on a dead flight.
func TestPanicReleasesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	inner := s.run
	var calls atomic.Int32
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		if calls.Add(1) == 1 {
			panic("simulated simulation bug")
		}
		return inner(ctx, id, rr)
	}

	status, _, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery)
	if status != http.StatusInternalServerError || errorCode(t, body) != "panic" {
		t.Fatalf("panicked request: status = %d, body = %s", status, body)
	}
	if got := counter(s, "serve.panics"); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}

	// The single slot must be free again: a different key simulates (200),
	// not 429.
	if status, _, body := get(t, ts, "/v1/experiments/table3.1"+tinyQuery); status != http.StatusOK {
		t.Errorf("request after panic: status = %d, want 200; body: %s", status, body)
	}
	// The panicked flight must be gone and its table uncached: a retry of
	// the same key re-runs the simulation rather than coalescing or hanging.
	status, hdr, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Errorf("retry of panicked key: status = %d, X-Cache = %q, body: %s",
			status, hdr.Get("X-Cache"), body)
	}
}

// TestPanicSettlesCoalescedFollowers pins that a follower coalesced onto a
// flight whose leader panics is woken with the structured panic error
// rather than blocking until its client gives up.
func TestPanicSettlesCoalescedFollowers(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		close(started)
		<-release
		panic("leader died mid-simulation")
	}

	type result struct {
		status int
		body   string
	}
	follower := make(chan result, 1)
	leader := make(chan result, 1)
	go func() {
		status, _, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery)
		leader <- result{status, body}
	}()
	<-started
	go func() {
		status, _, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery)
		follower <- result{status, body}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for counter(s, "serve.coalesced") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for name, ch := range map[string]chan result{"leader": leader, "follower": follower} {
		select {
		case res := <-ch:
			if res.status != http.StatusInternalServerError || errorCode(t, res.body) != "panic" {
				t.Errorf("%s: status = %d, body = %s", name, res.status, res.body)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked 10s after the leader panicked", name)
		}
	}
}

// TestListAndMetricsEndpoints covers the two read-only endpoints.
func TestListAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, hdr, body := get(t, ts, "/v1/experiments")
	if status != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("list: status %d, Content-Type %q", status, hdr.Get("Content-Type"))
	}
	var list []struct{ ID, Description string }
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list) != len(experiment.IDs()) {
		t.Errorf("list has %d entries, want %d", len(list), len(experiment.IDs()))
	}
	found := false
	for _, e := range list {
		if e.ID == "fig5.1" && strings.Contains(e.Description, "5.1") {
			found = true
		}
	}
	if !found {
		t.Errorf("fig5.1 missing from listing: %s", body)
	}

	status, _, body = get(t, ts, "/v1/metrics")
	if status != http.StatusOK || !strings.Contains(body, "counter serve.requests") {
		t.Errorf("metrics text: status %d, body: %s", status, body)
	}
	status, _, body = get(t, ts, "/v1/metrics?format=json")
	var snap struct {
		Counters []struct{ Name string } `json:"counters"`
	}
	if status != http.StatusOK {
		t.Fatalf("metrics json status = %d", status)
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	// The trace store is instrumented into the same registry.
	var hasStore bool
	for _, c := range snap.Counters {
		if c.Name == "tracestore.misses" {
			hasStore = true
		}
	}
	if !hasStore {
		t.Errorf("tracestore counters missing from /v1/metrics: %s", body)
	}
}

// TestCanonicalization checks that equivalent query strings map to one
// coalescing/cache key and that format stays out of the key.
func TestCanonicalization(t *testing.T) {
	cfg := Config{MaxTraceLen: DefaultMaxTraceLen, MaxSeeds: DefaultMaxSeeds}
	parse := func(query string) runRequest {
		t.Helper()
		r := httptest.NewRequest("GET", "/v1/experiments/fig5.1"+query, nil)
		rr, apiErr := parseRunRequest(r, cfg)
		if apiErr != nil {
			t.Fatalf("parse %q: %v", query, apiErr)
		}
		return rr
	}
	base := parse("")
	if got := parse("?seed=1&tracelen=200000&seeds=1"); got.key("fig5.1") != base.key("fig5.1") {
		t.Errorf("explicit defaults produce a different key:\n%s\n%s", got.key("fig5.1"), base.key("fig5.1"))
	}
	if got := parse("?workloads=go,m88ksim,gcc,compress95,li,ijpeg,perl,vortex"); got.key("fig5.1") != base.key("fig5.1") {
		t.Errorf("full workload list differs from the empty default:\n%s", got.key("fig5.1"))
	}
	if got := parse("?workloads=go,%20gcc"); got.key("f") != parse("?workloads=go,gcc").key("f") {
		t.Errorf("whitespace changes the key: %s", got.key("f"))
	}
	if a, b := parse("?format=csv"), parse("?format=md"); a.key("f") != b.key("f") {
		t.Errorf("format leaked into the key: %s vs %s", a.key("f"), b.key("f"))
	}
	if a, b := parse("?workloads=go,gcc"), parse("?workloads=gcc,go"); a.key("f") == b.key("f") {
		t.Errorf("workload order must stay in the key (row order differs): %s", a.key("f"))
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"valuepred/internal/experiment"
	"valuepred/internal/obs"
	"valuepred/internal/serve"
	"valuepred/internal/tracestore"
	"valuepred/internal/workload"
)

// The serve workload is a closed loop: serveClients() client connections,
// each sending its next request as soon as the previous one completes,
// against an in-process serve.Server with vpserve's default limits plus a
// cache directory. Its key space — serveExps × every benchmark ×
// serveSeeds seeds at serveTraceLen — holds more keys than the server's
// in-memory table LRU (serve.DefaultCacheEntries), so the disk tier is meant
// to carry the requests the LRU misses.
//
// The values below that neither the service's defaults nor the workload's
// definition fix are assumptions; README.md gives each one's reason and the
// measured effect of varying zipfS and asyncShare.
const (
	// serveTraceLen is shorter than vpserve's default request (200k
	// records) so that warming all keys, five times per run, fits the run.
	serveTraceLen = 10_000
	// serveSeeds times serveExps times the eight benchmarks gives 96 keys,
	// 1.5 times the table LRU.
	serveSeeds = 3
	// Of the seeded request sequence, asyncShare are async round trips
	// (POST /v1/jobs, poll, fetch the result) and newKeyShare are keys no
	// earlier request asked for, which must simulate; the rest are
	// synchronous GETs. Keys are drawn Zipf-popular with exponent zipfS,
	// near the flattest popularity rand.Zipf offers (it needs s > 1).
	asyncShare  = 0.10
	newKeyShare = 0.01
	zipfS       = 1.1
	// A never-seen key is a warm key's experiment, benchmark and seed at a
	// trace length no other request uses, newKeyLen plus the key's
	// ordinal: the server's trace store serves it as a prefix of the warm
	// trace, so new keys cost simulation, not trace memory.
	newKeyLen = 2_000
	// serveSetupReps is how many times a run starts a server and warms it;
	// setup_s is the median.
	serveSetupReps = 5
	// passRequests is one serve pass: wall_s is the median time the loop
	// takes to complete that many requests. A pass holds about 50 async
	// round trips and 5 never-seen keys, so each pass carries the whole mix.
	passRequests = 500
	// pollInterval spaces an async client's status polls: an eager client,
	// well under the cheapest simulation, so a round trip ends soon after
	// its job does. (The server's Retry-After of one second would make the
	// wait, not the job, the round trip's cost.)
	pollInterval = 2 * time.Millisecond
	// seqLen is the length of the seeded request sequence: longer than a
	// run gets through, so a run's requests are a fresh sample of the
	// popularity distribution rather than a short sequence repeated.
	// Clients would cycle through it from the start.
	seqLen = 1 << 16
)

// serveExps are two Section 3 experiments (ideal machine) and two Section
// 5 ones (pipeline), so misses pay for both simulators.
var serveExps = []string{"fig3.1", "fig3.3", "fig5.2", "sec4"}

// serveClients is the closed loop's connection count: one per CPU, but no
// more than the server's simulation slots, so that synchronous misses are
// never shed for want of a slot.
func serveClients() int { return min(runtime.NumCPU(), serve.DefaultMaxConcurrent) }

// skey is one cache key of the service.
type skey struct {
	exp      string
	workload string
	seed     int64
	traceLen int
}

func (k skey) query() url.Values {
	return url.Values{
		"seed":      {strconv.FormatInt(k.seed, 10)},
		"tracelen":  {strconv.Itoa(k.traceLen)},
		"workloads": {k.workload},
	}
}

// warmKeys is the key space for trace seed seed, by experiment, then
// benchmark, then trace seed.
func warmKeys(seed int64) []skey {
	var keys []skey
	for _, exp := range serveExps {
		for _, w := range workload.Names() {
			for s := int64(0); s < serveSeeds; s++ {
				keys = append(keys, skey{exp, w, seed + s, serveTraceLen})
			}
		}
	}
	return keys
}

// sop is one entry of the request sequence.
type sop struct {
	async  bool
	newKey bool
	key    int // index into the warm keys (for a new key: the key it derives from)
}

// requestSeq generates the seeded request sequence over the warm keys,
// which warmKeys lays out by experiment, then benchmark, then trace seed.
// Popularity ranks go round-robin over the experiments, then over the
// benchmarks, so every request seed sees the same mix of cheap and costly
// simulations at every popularity level; the seed picks the order of the
// draws, which of a key's trace seeds is the popular one, and the async and
// never-seen requests.
func requestSeq(reqSeed int64, nexp, nbench, nseeds int) []sop {
	rng := rand.New(rand.NewSource(reqSeed))
	slots := make([][]int, nexp*nbench)
	for i := range slots {
		slots[i] = rng.Perm(nseeds)
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(nexp*nbench*nseeds-1))
	seq := make([]sop, seqLen)
	for i := range seq {
		u := rng.Float64()
		r := int(zipf.Uint64())
		eb := (r%nexp)*nbench + (r/nexp)%nbench
		seq[i] = sop{
			async:  u < asyncShare,
			newKey: u >= asyncShare && u < asyncShare+newKeyShare,
			key:    eb*nseeds + slots[eb][r/(nexp*nbench)],
		}
	}
	return seq
}

// server is one started service with its listener and cache directory.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
	dir  string
}

func startServer(workDir string) (*server, error) {
	dir, err := os.MkdirTemp(workDir, "serve-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		CacheDir: dir,
		Store:    tracestore.New(tracestore.DefaultLimit),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String(), dir: dir}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the service, waits for its serving goroutine and removes the
// cache directory.
func (s *server) stop() error {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one closed-loop connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, base: base}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	cache  string // X-Cache
	body   []byte
	err    error
	lat    time.Duration
}

func (c *client) do(method, path string, q url.Values) reply {
	u := c.base + path
	if q != nil {
		u += "?" + q.Encode()
	}
	var r reply
	start := time.Now()
	req, err := http.NewRequest(method, u, nil)
	if err != nil {
		r.err = err
		return r
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		r.lat = time.Since(start)
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(start)
	r.status, r.cache = resp.StatusCode, resp.Header.Get("X-Cache")
	return r
}

// refused reports a failed exchange: a transport error or a refusal.
func (r reply) refused() bool {
	return r.err != nil || r.status == http.StatusTooManyRequests || r.status >= 500
}

// loop is the measured closed loop's shared state. A request is one sync
// GET or one async round trip (submit, status polls, result); an exchange is
// one HTTP call. Every exchange counts in attempted and failed, but only
// requests count in ends and lat, so the status polls — whose number grows
// with the job's simulation time and shrinks with pollInterval — weigh
// neither in wall_s nor in req_*.
type loop struct {
	seq    []sop
	warm   []skey
	next   atomic.Int64  // next sequence position
	newKey *atomic.Int64 // never-seen keys handed out, shared by every loop of a run

	mu         sync.Mutex
	ends       []time.Time             // request completions
	lat        dist                    // request latencies
	byCache    map[string]*dist        // sync GET latencies by X-Cache
	roundTrips dist                    // async round-trip latencies
	bodies     map[skey]map[string]int // key -> body digest -> requests
	attempted  int
	failed     int
	resubmits  int
	warmMisses int // warm keys the server simulated again
	notes      []string
}

func newLoop(seq []sop, warm []skey, newKey *atomic.Int64) *loop {
	return &loop{seq: seq, warm: warm, newKey: newKey, byCache: map[string]*dist{}, bodies: map[skey]map[string]int{}}
}

// record accounts one exchange; k is the key whose table the body must be
// (nil when the body is not a table).
func (l *loop) record(r reply, k *skey) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if r.cache != "" {
		d := l.byCache[r.cache]
		if d == nil {
			d = &dist{}
			l.byCache[r.cache] = d
		}
		d.addDur(r.lat, time.Millisecond)
	}
	if r.refused() {
		l.failed++
		if len(l.notes) < 5 {
			l.notes = append(l.notes, fmt.Sprintf("refused: status %d, %v", r.status, r.err))
		}
		return
	}
	if k != nil && r.cache == "miss" && k.traceLen == serveTraceLen {
		l.warmMisses++
	}
	if k != nil {
		m := l.bodies[*k]
		if m == nil {
			m = map[string]int{}
			l.bodies[*k] = m
		}
		m[bodyDigest(r.body)]++
	}
}

// run drives one client until the deadline.
func (l *loop) run(c *client, deadline time.Time) {
	for time.Now().Before(deadline) {
		op := l.seq[int(l.next.Add(1)-1)%len(l.seq)]
		k := l.warm[op.key]
		if op.newKey {
			k.traceLen = newKeyLen + int(l.newKey.Add(1))
		}
		start := time.Now()
		if op.async {
			l.roundTrip(c, k)
		} else {
			l.get(c, k)
		}
		l.finish(start, op.async)
	}
}

// finish accounts one request, begun at start, that has just completed.
func (l *loop) finish(start time.Time, async bool) {
	end := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ends = append(l.ends, end)
	l.lat.addDur(end.Sub(start), time.Millisecond)
	if async {
		l.roundTrips.addDur(end.Sub(start), time.Millisecond)
	}
}

// get sends k as one synchronous GET.
func (l *loop) get(c *client, k skey) {
	r := c.do("GET", "/v1/experiments/"+k.exp, k.query())
	l.record(r, &k)
	if !r.refused() && r.status != http.StatusOK {
		l.fail(fmt.Sprintf("GET %s: status %d: %s", k.exp, r.status, r.body))
	}
}

func (l *loop) fail(note string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.notes) < 5 {
		l.notes = append(l.notes, note)
	}
}

// jobStatus is the part of a job reply the client reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// roundTrip submits k as an async job, polls it until done, and fetches the
// result. A job the server no longer knows (404: evicted, or dropped for a
// rerun) is submitted again, as the API asks clients to.
func (l *loop) roundTrip(c *client, k skey) {
	q := k.query()
	q.Set("experiment", k.exp)
	for attempt := 0; attempt < 3; attempt++ {
		r := c.do("POST", "/v1/jobs", q)
		l.record(r, nil)
		if r.refused() {
			return
		}
		var st jobStatus
		if err := json.Unmarshal(r.body, &st); err != nil || st.ID == "" {
			l.fail(fmt.Sprintf("POST /v1/jobs: status %d: unreadable reply %q", r.status, r.body))
			return
		}
		for {
			if st.State == "failed" {
				l.fail("async job " + st.ID + " failed")
				return
			}
			if st.State == "done" {
				res := c.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
				if res.status == http.StatusOK {
					l.record(res, &k)
					return
				}
				l.record(res, nil)
				if res.refused() {
					return
				}
				if res.status != http.StatusConflict && res.status != http.StatusNotFound {
					l.fail(fmt.Sprintf("job result: status %d", res.status))
					return
				}
				if res.status == http.StatusNotFound {
					break
				}
			}
			time.Sleep(pollInterval)
			p := c.do("GET", "/v1/jobs/"+st.ID, nil)
			l.record(p, nil)
			if p.refused() {
				return
			}
			if p.status == http.StatusNotFound {
				break
			}
			if err := json.Unmarshal(p.body, &st); err != nil {
				l.fail(fmt.Sprintf("job status: status %d: unreadable reply %q", p.status, p.body))
				return
			}
		}
		l.mu.Lock()
		l.resubmits++
		l.mu.Unlock()
	}
	l.fail("async job vanished three times")
}

// drive runs the closed loop with every client until the deadline.
func (l *loop) drive(clients []*client, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(c, deadline)
		}()
	}
	wg.Wait()
}

// warm requests every key once, spread over the clients.
func warm(clients []*client, keys []skey) error {
	var next atomic.Int64
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(keys) {
					return
				}
				r := c.do("GET", "/v1/experiments/"+keys[j].exp, keys[j].query())
				if r.err != nil || r.status != http.StatusOK {
					errs[i] = fmt.Errorf("warming %v: status %d: %v", keys[j], r.status, r.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// counters reads the server's registry counters over its own API.
func counters(c *client) (map[string]uint64, error) {
	r := c.do("GET", "/v1/metrics", url.Values{"format": {"json"}})
	if r.err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d: %v", r.status, r.err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(r.body, &snap); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	out := map[string]uint64{}
	for _, cv := range snap.Counters {
		out[cv.Name] = cv.Value
	}
	return out, nil
}

func runServe(o opts) (*report, error) {
	rep := newReport(serveTraceLen)
	workDir := ".bench_build"
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	keys := warmKeys(o.seed)
	nc := serveClients()

	var setup dist
	var srv *server
	var clients []*client
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			for _, c := range clients {
				c.close()
			}
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if srv, err = startServer(workDir); err != nil {
			return nil, err
		}
		clients = clients[:0]
		for j := 0; j < nc; j++ {
			clients = append(clients, newClient(srv.base))
		}
		if err := warm(clients, keys); err != nil {
			srv.stop()
			return nil, err
		}
		setup.addDur(time.Since(start), time.Second)
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	seq := requestSeq(o.reqSeed, len(serveExps), len(workload.Names()), serveSeeds)
	var newKey atomic.Int64
	d := time.Duration(o.seconds) * time.Second
	var loops []*loop
	var before, after map[string]uint64
	err := func() error {
		if o.traced {
			// The traced run first lets the table LRU settle from the
			// warm-up order into the popularity order, so the counter
			// deltas describe the steady mix.
			settle := newLoop(seq, keys, &newKey)
			settle.drive(clients, d/5)
			d -= d / 5
			loops = append(loops, settle)
		}
		var err error
		if before, err = counters(clients[0]); err != nil {
			return err
		}
		l := newLoop(seq, keys, &newKey)
		start := time.Now()
		l.drive(clients, d)
		elapsed := time.Since(start)
		if after, err = counters(clients[0]); err != nil {
			return err
		}
		rep.set("req_per_s", float64(len(l.ends))/elapsed.Seconds(), len(l.ends))
		loops = append(loops, l)
		return nil
	}()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	// Peak memory is read before the bodies are checked, so it is the
	// service's and its clients', not the reference renderings'.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	if err := tally(loops, rep); err != nil {
		return nil, err
	}
	l := loops[len(loops)-1]
	rep.notef("clients=%d keys=%d (table LRU %d entries) async=%.0f%% new-key=%.0f%% zipf_s=%.2g resubmits=%d",
		nc, len(keys), serve.DefaultCacheEntries, 100*asyncShare, 100*newKeyShare, zipfS, l.resubmits)
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	rep.notef("server counters over the loop: simulations=%.0f cache_hit=%.0f disk_cache_hit=%.0f coalesced=%.0f",
		delta("serve.simulations"), delta("serve.cache_hit"), delta("serve.disk_cache_hit"), delta("serve.coalesced"))
	if l.warmMisses > 0 && delta("serve.disk_cache_hit") == 0 {
		rep.notef("%d requests for warm keys missed the table LRU and were simulated again; none was read from the disk tier", l.warmMisses)
	}

	if o.traced {
		for name, metric := range map[string]string{"hit": "serve.lru_hit_p50_ms", "disk": "serve.disk_hit_p50_ms", "miss": "serve.sim_p50_ms"} {
			if dd := l.byCache[name]; dd != nil {
				v, n := dd.pct(50)
				rep.set(metric, v, n)
			}
		}
		v, n := l.roundTrips.pct(50)
		rep.set("serve.job_roundtrip_p50_ms", v, n)
		rep.set("serve.simulations_per_key", delta("serve.simulations")/float64(len(l.bodies)), len(l.bodies))
		rep.set("serve.disk_hits", delta("serve.disk_cache_hit"), 1)
		rep.set("serve.coalesced", delta("serve.coalesced"), 1)
		passes := float64(len(l.ends)) / passRequests
		rep.set("tracestore.hits", delta("tracestore.hits")/passes, int(passes))
		rep.set("tracestore.misses", delta("tracestore.misses")/passes, int(passes))
		rep.notef("trace.overhead_ratio is not applicable on serve (reported 0): nothing in the server is timed; its per-layer figures are reply headers and counter deltas")
		return rep, measureServeSupply(o.seed, rep)
	}

	setupMed, n := setup.pct(50)
	rep.set("setup_s", setupMed, n)
	walls := passWalls(l.ends, passRequests)
	wall, n := walls.pct(50)
	rep.set("wall_s", wall, n)
	p50, n := l.lat.pct(50)
	rep.set("req_p50_ms", p50, n)
	p99, n := l.lat.pct(99)
	rep.set("req_p99_ms", p99, n)
	if beyond := l.lat.tailBeyond(99); beyond < 10 {
		rep.notef("req_p99_ms has only %d samples beyond it", beyond)
	}
	rep.set("peak_rss_mb", rss, 1)
	return rep, nil
}

// passWalls splits request completions into passes of per requests and
// returns each pass's wall time in seconds.
func passWalls(ends []time.Time, per int) *dist {
	sorted := append([]time.Time(nil), ends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	var d dist
	for i := 2*per - 1; i < len(sorted); i += per {
		d.addDur(sorted[i].Sub(sorted[i-per]), time.Second)
	}
	return &d
}

// tally adds the loops' exchanges, failures and notes to rep, then renders
// every key the loops requested with experiment.Run, on a store of its own,
// and compares each response body with it.
func tally(loops []*loop, rep *report) error {
	for _, l := range loops {
		rep.attempted += l.attempted
		rep.failed += l.failed
		rep.notes = append(rep.notes, l.notes...)
	}
	st := tracestore.New(tracestore.DefaultLimit)
	want := map[skey]string{}
	for _, l := range loops {
		keys := make([]skey, 0, len(l.bodies))
		for k := range l.bodies {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			if _, ok := want[k]; !ok {
				tab, err := experiment.Run(k.exp, experiment.Params{
					Seed: k.seed, TraceLen: k.traceLen, Workloads: []string{k.workload}, Store: st,
				})
				if err != nil {
					return fmt.Errorf("reference for %v: %w", k, err)
				}
				if want[k], err = tableDigest(tab); err != nil {
					return err
				}
			}
			for got, n := range l.bodies[k] {
				rep.checked += n
				if got != want[k] {
					rep.mismatches += n
					rep.failed += n
					rep.notef("%v: %d responses differ from the experiment.Run rendering", k, n)
				}
			}
		}
	}
	return nil
}

// measureServeSupply times the emulator on the serve workload's traces.
func measureServeSupply(seed int64, rep *report) error {
	var recs int
	var busy time.Duration
	for _, w := range workload.Names() {
		for s := int64(0); s < serveSeeds; s++ {
			flat, d, err := emulate(w, seed+s, serveTraceLen)
			if err != nil {
				return err
			}
			recs += len(flat)
			busy += d
		}
	}
	rep.set("emu.minst_per_s", float64(recs)/busy.Seconds()/1e6, len(workload.Names())*serveSeeds)
	return nil
}

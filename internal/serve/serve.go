// Package serve is the HTTP experiment service behind cmd/vpserve: it
// exposes the experiment registry over a small versioned API and turns the
// one-shot CLI pipeline into a long-lived process that can serve many
// clients from one warm trace store.
//
// The paper's lesson — exploit redundancy instead of recomputing — is
// applied at the request level:
//
//   - every distinct simulation is one job in an internal/jobs store,
//     keyed by the canonicalized run parameters; identical concurrent
//     requests coalesce onto the same job, and the asynchronous API
//     (POST /v1/jobs, GET /v1/jobs/{id}) exposes the same jobs to clients
//     that would rather poll than hold a connection open;
//   - completed tables land in a bounded in-memory LRU, and — when a
//     cache directory is configured — in a persistent content-addressed
//     store that survives restarts and can be shared between replicas
//     (lookup order: memory, disk, simulate);
//   - load beyond a configurable number of concurrent simulations is
//     shed with 429 + Retry-After on the synchronous path, while async
//     submissions may wait in a bounded FIFO;
//   - every simulation runs under a context with a configurable timeout
//     and is aborted cooperatively through experiment.RunCtx's checkpoints.
//
// A replica started with a shard assignment (vpserve -shard n/m) serves
// its deterministic partition of the workload axis: normal formats render
// the partial table, and format=shard returns the mergeable artifact that
// vpsim -merge or POST /v1/merge recombines byte-identically to the
// unsharded run (DESIGN.md §14).
//
// Parallelism is bounded at two independent levels: MaxConcurrent admits
// jobs, and every admitted experiment then executes its cells on the
// process-global internal/plan worker pool (sized by valuepred.SetWorkers
// / vpserve's -workers flag), so total simulation concurrency is capped by
// the pool width rather than requests × workloads.
//
// Served tables are byte-identical to cmd/vpsim's output for the same
// parameters (pinned by TestServedTableMatchesVpsimRendering): the service
// renders through the same stats.Table methods, and the determinism
// contract (DESIGN.md §9) guarantees the table itself.
//
// Observability rides on internal/obs: every request increments
// serve.requests, coalesced followers serve.coalesced, cache outcomes
// serve.cache_hit / serve.cache_miss / serve.disk_cache_*, the job
// lifecycle serve.jobs.*, and request latency lands in the
// serve.latency_ms histogram; GET /v1/metrics renders the registry
// snapshot. The serve package sits outside the simulation packages, so —
// unlike them — it may read the wall clock and the recorded metrics back.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"valuepred/internal/experiment"
	"valuepred/internal/jobs"
	"valuepred/internal/obs"
	"valuepred/internal/plan"
	"valuepred/internal/stats"
	"valuepred/internal/tracestore"
	"valuepred/internal/workload"
)

// Defaults for the zero Config.
const (
	// DefaultMaxConcurrent bounds simultaneous simulations (not requests:
	// cache hits and coalesced followers never take a slot).
	DefaultMaxConcurrent = 4
	// DefaultTimeout caps one simulation, including trace generation.
	DefaultTimeout = 2 * time.Minute
	// DefaultCacheEntries bounds the rendered-table LRU.
	DefaultCacheEntries = 64
	// DefaultMaxTraceLen rejects absurd per-request trace lengths before
	// they reach an emulator.
	DefaultMaxTraceLen = 2_000_000
	// DefaultMaxSeeds bounds the multi-seed averaging a single request may
	// ask for.
	DefaultMaxSeeds = 16
)

// Config parameterises a Server. The zero value serves with the defaults
// above, the process-wide trace store, and a fresh metrics registry.
type Config struct {
	// MaxConcurrent is the simulation semaphore width; <= 0 means
	// DefaultMaxConcurrent. Synchronous requests that would exceed it
	// receive 429 Too Many Requests with a Retry-After header; async
	// submissions queue up to JobQueue deep.
	MaxConcurrent int
	// Timeout caps one simulation run; <= 0 means DefaultTimeout. An
	// expired run returns 504 Gateway Timeout.
	Timeout time.Duration
	// CacheEntries bounds the completed-table LRU; <= 0 means
	// DefaultCacheEntries.
	CacheEntries int
	// MaxTraceLen rejects requests asking for longer traces; <= 0 means
	// DefaultMaxTraceLen.
	MaxTraceLen int
	// MaxSeeds rejects requests averaging over more seeds; <= 0 means
	// DefaultMaxSeeds.
	MaxSeeds int
	// CacheDir, when non-empty, enables the persistent second-level table
	// cache: completed tables are written there as identity-stamped JSON
	// entries and served back — across restarts, and between replicas
	// sharing the directory — without re-simulation. The directory is
	// created if needed; an unwritable directory fails New.
	CacheDir string
	// DiskCacheEntries bounds the on-disk cache; <= 0 means
	// DefaultDiskCacheEntries. Eviction is oldest-written-first.
	DiskCacheEntries int
	// JobRetention bounds how many settled jobs are kept for result
	// fetches by id; <= 0 means jobs.DefaultRetention.
	JobRetention int
	// JobQueue bounds async submissions waiting for a simulation slot;
	// <= 0 means jobs.DefaultQueueLimit. Beyond it POST /v1/jobs sheds
	// with 429.
	JobQueue int
	// Shard, when enabled, restricts this replica to its deterministic
	// partition of the workload axis (DESIGN.md §14): normal formats
	// render the partial table, format=shard the mergeable artifact. The
	// zero value serves unsharded.
	Shard plan.Shard
	// Store overrides the trace cache consulted by the simulations
	// (nil = tracestore.Shared()). Mainly for tests needing fresh counters.
	Store *tracestore.Store
	// Registry receives the serve.* metrics and the simulators'
	// instrumentation (nil = a fresh registry). Exposed at /v1/metrics.
	Registry *obs.Registry
	// EventLog, when non-nil, receives the structured event stream:
	// request.start/done from the middleware, simulation.start/done per
	// job, and cell.start/done from the plan runner — every line
	// span-stamped so one request's work is grep-able end to end.
	EventLog *obs.EventLog
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints are a diagnostic surface, not part of
	// the public API (vpserve's -pprof flag turns them on).
	EnablePprof bool
}

// apiError is a structured error reply; the wire form is
//
//	{"error": {"code": "bad_params", "message": "..."}}
type apiError struct {
	status     int
	Code       string `json:"code"`
	Message    string `json:"message"`
	retryAfter int    // seconds; > 0 adds a Retry-After header
}

// Error makes apiError usable as an error inside the handler plumbing.
func (e *apiError) Error() string { return e.Code + ": " + e.Message }

// errSaturated is returned when a synchronous request finds every
// simulation slot busy.
var errSaturated = errors.New("serve: all simulation slots are busy")

// errQueueFull is returned when an async submission finds the job queue
// at its limit.
var errQueueFull = errors.New("serve: the job queue is full")

// jobSpec is the payload a job carries: everything execute needs to run
// the simulation without the submitting request's connection or context.
type jobSpec struct {
	id    string // experiment id
	rr    runRequest
	span  uint64 // submitter's span, re-attached for event correlation (0 = none)
	shard bool   // produce the shard artifact instead of a table
}

// serveMetrics are the pre-resolved registry handles for the serve.* names.
type serveMetrics struct {
	requests      *obs.Counter
	coalesced     *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	simulations   *obs.Counter
	rejected      *obs.Counter
	timeouts      *obs.Counter
	panics        *obs.Counter
	inflight      *obs.Gauge
	cacheSize     *obs.Gauge
	latency       *obs.Histogram
	jobsCreated   *obs.Counter // serve.jobs.created
	jobsQueued    *obs.Counter // serve.jobs.queued
	jobsCompleted *obs.Counter // serve.jobs.completed
	jobsFailed    *obs.Counter // serve.jobs.failed
	jobsEvicted   *obs.Counter // serve.jobs.evicted
	jobsTracked   *obs.Gauge   // serve.jobs.tracked
	jobsQueue     *obs.Gauge   // serve.jobs.queue_depth
	diskHits      *obs.Counter // serve.disk_cache_hit
	diskMisses    *obs.Counter // serve.disk_cache_miss
	diskStale     *obs.Counter // serve.disk_cache_stale
	diskWrites    *obs.Counter // serve.disk_cache_write
	diskEvicts    *obs.Counter // serve.disk_cache_evict
	diskErrors    *obs.Counter // serve.disk_cache_error
}

// latencyBounds bucket request latency in milliseconds: sub-millisecond
// cache hits up to multi-minute cold simulations.
var latencyBounds = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

// Server is the HTTP experiment service. Create it with New; it implements
// none of http.Server's lifecycle itself — mount Handler on any server and
// call BeginDrain/Close around that server's Shutdown for a graceful exit.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	sink     *obs.Sink
	progress *obs.Progress
	events   *obs.EventLog
	mux      *http.ServeMux
	sem      chan struct{}
	jobs     *jobs.Store
	disk     *diskCache // nil when no CacheDir is configured

	mu    sync.Mutex
	cache *tableCache

	// baseCtx parents every simulation context, so jobs outlive any single
	// client but die together on Close.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool

	// run and runShard are the simulation entry points; tests substitute
	// them to make coalescing and saturation deterministic.
	run      func(ctx context.Context, id string, rr runRequest) (*stats.Table, error)
	runShard func(ctx context.Context, id string, rr runRequest) (*experiment.ShardFile, error)

	m serveMetrics
}

// New returns a Server for cfg. The trace store in use is instrumented
// into the server's registry (tracestore.* counters appear in /v1/metrics).
// It fails when cfg.Shard is malformed or cfg.CacheDir cannot be created
// or written.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.MaxTraceLen <= 0 {
		cfg.MaxTraceLen = DefaultMaxTraceLen
	}
	if cfg.MaxSeeds <= 0 {
		cfg.MaxSeeds = DefaultMaxSeeds
	}
	if cfg.Shard != (plan.Shard{}) {
		if err := cfg.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	var disk *diskCache
	if cfg.CacheDir != "" {
		d, err := newDiskCache(cfg.CacheDir, cfg.DiskCacheEntries)
		if err != nil {
			return nil, err
		}
		disk = d
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	//lint:ignore ctxlint server construction is the process root; this context has no caller to inherit from
	ctx, cancel := context.WithCancel(context.Background())
	progress := obs.NewProgress()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		progress: progress,
		events:   cfg.EventLog,
		// The sink the simulations write through feeds the registry, the
		// live Progress aggregator and (when configured) the event log; the
		// plan runner inherits all three through Params.Obs.
		sink:       obs.New(reg, nil).WithProgress(progress).WithEventLog(cfg.EventLog),
		mux:        http.NewServeMux(),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		jobs:       jobs.NewStore(cfg.JobRetention, cfg.JobQueue),
		disk:       disk,
		cache:      newTableCache(cfg.CacheEntries),
		baseCtx:    ctx,
		baseCancel: cancel,
		m: serveMetrics{
			requests:      reg.Counter("serve.requests"),
			coalesced:     reg.Counter("serve.coalesced"),
			cacheHits:     reg.Counter("serve.cache_hit"),
			cacheMisses:   reg.Counter("serve.cache_miss"),
			simulations:   reg.Counter("serve.simulations"),
			rejected:      reg.Counter("serve.rejected"),
			timeouts:      reg.Counter("serve.timeouts"),
			panics:        reg.Counter("serve.panics"),
			inflight:      reg.Gauge("serve.inflight"),
			cacheSize:     reg.Gauge("serve.cache_entries"),
			latency:       reg.Histogram("serve.latency_ms", latencyBounds),
			jobsCreated:   reg.Counter("serve.jobs.created"),
			jobsQueued:    reg.Counter("serve.jobs.queued"),
			jobsCompleted: reg.Counter("serve.jobs.completed"),
			jobsFailed:    reg.Counter("serve.jobs.failed"),
			jobsEvicted:   reg.Counter("serve.jobs.evicted"),
			jobsTracked:   reg.Gauge("serve.jobs.tracked"),
			jobsQueue:     reg.Gauge("serve.jobs.queue_depth"),
			diskHits:      reg.Counter("serve.disk_cache_hit"),
			diskMisses:    reg.Counter("serve.disk_cache_miss"),
			diskStale:     reg.Counter("serve.disk_cache_stale"),
			diskWrites:    reg.Counter("serve.disk_cache_write"),
			diskEvicts:    reg.Counter("serve.disk_cache_evict"),
			diskErrors:    reg.Counter("serve.disk_cache_error"),
		},
	}
	s.run = s.simulate
	s.runShard = s.shardFile
	s.store().Instrument(reg)
	if cfg.EventLog != nil {
		s.store().InstrumentEvents(cfg.EventLog)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/progress", s.handleProgress)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("POST /v1/merge", s.handleMerge)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	if cfg.EnablePprof {
		s.mountPprof()
	}
	return s, nil
}

func (s *Server) store() *tracestore.Store {
	if s.cfg.Store != nil {
		return s.cfg.Store
	}
	return tracestore.Shared()
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the service's root handler: the API mux wrapped in the
// panic-recovery and request-metrics middleware.
func (s *Server) Handler() http.Handler { return s.instrumented(s.mux) }

// BeginDrain flips the server into draining mode: /healthz starts failing
// (so load balancers stop routing here) and new simulations are refused
// with 503, while jobs already admitted — including their coalesced
// followers and queued successors — run to completion. Call it right
// before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close aborts every in-flight simulation by canceling their shared parent
// context. Use it after a drain deadline expires; a graceful exit never
// needs it.
func (s *Server) Close() { s.baseCancel() }

// --- middleware ---

// statusRecorder captures the response code for the per-status counters.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code, r.wrote = code, true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// instrumented wraps next with panic recovery, the request counter, the
// latency histogram and per-status-code counters. It also mints the
// request's span id: every request gets a fresh "req-<n>" span attached
// to its context (and echoed in the X-Span response header), which the
// event log and the plan tracer use to correlate a request with the
// simulation cells it scheduled.
func (s *Server) instrumented(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		ctx := obs.WithSpan(r.Context(), obs.NextSpan())
		r = r.WithContext(ctx)
		w.Header().Set("X-Span", obs.SpanName(ctx))
		s.events.Log(ctx, "serve", "request.start",
			obs.F("method", r.Method), obs.F("path", r.URL.Path))
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Inc()
				if !rec.wrote {
					writeError(rec, &apiError{
						status:  http.StatusInternalServerError,
						Code:    "panic",
						Message: fmt.Sprint(p),
					})
				}
			}
			s.m.latency.Observe(float64(time.Since(start).Milliseconds()))
			s.reg.Counter(fmt.Sprintf("serve.status.%d", rec.code)).Inc()
			s.events.Log(ctx, "serve", "request.done",
				obs.F("method", r.Method), obs.F("path", r.URL.Path),
				obs.F("status", rec.code),
				obs.F("wall_ms", float64(time.Since(start))/float64(time.Millisecond)))
		}()
		next.ServeHTTP(rec, r)
	})
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// experimentInfo is one entry of the /v1/experiments listing.
type experimentInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var list []experimentInfo
	for _, id := range experiment.IDs() {
		desc, _ := experiment.Describe(id)
		list = append(list, experimentInfo{ID: id, Description: desc})
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := snap.WriteText(w); err != nil {
		return // client went away mid-write; nothing useful left to do
	}
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := experiment.Describe(id); !ok {
		writeError(w, &apiError{
			status:  http.StatusNotFound,
			Code:    "unknown_experiment",
			Message: fmt.Sprintf("unknown experiment %q; list them at /v1/experiments", id),
		})
		return
	}
	rr, apiErr := parseRunRequest(r, s.cfg)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if rr.Format == "shard" {
		if !s.cfg.Shard.Enabled() {
			writeError(w, &apiError{
				status:  http.StatusBadRequest,
				Code:    "bad_params",
				Message: "format=shard requires a sharded server (vpserve -shard n/m)",
			})
			return
		}
		f, source, err := s.shardArtifact(r.Context(), id, rr)
		if err != nil {
			writeError(w, s.classify(err))
			return
		}
		w.Header().Set("X-Cache", source)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err := f.WriteJSON(w); err != nil {
			return // client went away mid-write
		}
		return
	}
	tab, source, err := s.table(r.Context(), id, rr)
	if err != nil {
		writeError(w, s.classify(err))
		return
	}
	w.Header().Set("X-Cache", source)
	renderTables(w, rr.Format, tab, tab)
}

// classify maps a simulation error onto the API error space.
func (s *Server) classify(err error) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, errSaturated):
		s.m.rejected.Inc()
		return &apiError{
			status:     http.StatusTooManyRequests,
			Code:       "saturated",
			Message:    fmt.Sprintf("all %d simulation slots are busy; retry shortly", s.cfg.MaxConcurrent),
			retryAfter: 1,
		}
	case errors.Is(err, errQueueFull):
		s.m.rejected.Inc()
		return &apiError{
			status:     http.StatusTooManyRequests,
			Code:       "queue_full",
			Message:    "the job queue is full; retry shortly",
			retryAfter: 1,
		}
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		return &apiError{
			status:  http.StatusGatewayTimeout,
			Code:    "timeout",
			Message: fmt.Sprintf("simulation exceeded the %s server timeout; request a shorter tracelen or fewer workloads", s.cfg.Timeout),
		}
	case errors.Is(err, context.Canceled):
		return &apiError{
			status:  http.StatusServiceUnavailable,
			Code:    "canceled",
			Message: "simulation was canceled (server shutting down or client gone)",
		}
	default:
		return &apiError{
			status:  http.StatusInternalServerError,
			Code:    "internal",
			Message: err.Error(),
		}
	}
}

// --- the job core ---

// key is the canonical cache/coalescing key for (id, rr) on this server.
// A sharded replica suffixes its shard so that replicas sharing a cache
// directory can never serve each other's partial tables.
func (s *Server) key(id string, rr runRequest) string {
	k := rr.key(id)
	if s.cfg.Shard.Of > 1 {
		k += "|shard=" + s.cfg.Shard.String()
	}
	return k
}

// table returns the experiment table for (id, rr), serving it — in order
// of preference — from the completed-table LRU, from the persistent disk
// cache, by coalescing onto an identical in-flight job, or by running a
// fresh job under the server's semaphore and timeout.
func (s *Server) table(reqCtx context.Context, id string, rr runRequest) (*stats.Table, string, error) {
	key := s.key(id, rr)
	s.mu.Lock()
	if t, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.m.cacheHits.Inc()
		return t, "hit", nil
	}
	s.mu.Unlock()
	// Disk is only worth probing when no identical job is in flight —
	// otherwise coalescing is both cheaper and fresher.
	if _, busy := s.jobs.ByKey(key); !busy {
		if t, ok := s.diskGet(key); ok {
			s.mu.Lock()
			s.cache.add(key, t)
			s.m.cacheSize.Set(int64(s.cache.len()))
			s.mu.Unlock()
			return t, "disk", nil
		}
	}
	spec := jobSpec{id: id, rr: rr}
	if span, ok := obs.SpanID(reqCtx); ok {
		spec.span = span
	}
	res, source, err := s.obtain(reqCtx, key, spec, false, false)
	if err != nil {
		return nil, "", err
	}
	tab, ok := res.(*stats.Table)
	if !ok || tab == nil {
		return nil, "", &apiError{
			status:  http.StatusInternalServerError,
			Code:    "internal",
			Message: "job settled without a table",
		}
	}
	return tab, source, nil
}

// shardArtifact returns the mergeable shard file for (id, rr) through the
// same job core as table. Artifacts bypass the table caches (they are a
// different result type) but settled artifact jobs are reused, so
// repeated fetches of the same shard do not re-simulate within the job
// retention window.
func (s *Server) shardArtifact(reqCtx context.Context, id string, rr runRequest) (*experiment.ShardFile, string, error) {
	key := s.key(id, rr) + "|artifact"
	spec := jobSpec{id: id, rr: rr, shard: true}
	if span, ok := obs.SpanID(reqCtx); ok {
		spec.span = span
	}
	res, source, err := s.obtain(reqCtx, key, spec, false, true)
	if err != nil {
		return nil, "", err
	}
	f, ok := res.(*experiment.ShardFile)
	if !ok || f == nil {
		return nil, "", &apiError{
			status:  http.StatusInternalServerError,
			Code:    "internal",
			Message: "job settled without a shard artifact",
		}
	}
	if source == "job" {
		source = "hit"
	}
	return f, source, nil
}

// obtain resolves key to a settled result by joining the job behind it:
// coalescing onto a queued or running job, starting a fresh one, or —
// when reuseSettled is set — returning a retained done job's result
// (source "job"). A done job found with reuseSettled unset is dropped and
// re-run, which keeps the synchronous path's cache semantics with the
// in-memory LRU and the disk store, not job retention (retention serves
// the async fetch-by-id API). A failed job never poisons its key: it is
// dropped and the run retried.
func (s *Server) obtain(reqCtx context.Context, key string, spec jobSpec, canQueue, reuseSettled bool) (any, string, error) {
	for {
		if j, ok := s.jobs.ByKey(key); ok {
			switch j.State() {
			case jobs.StateDone:
				if reuseSettled {
					res, err := j.Result()
					return res, "job", err
				}
				s.jobs.Drop(j)
				s.syncJobGauges()
				continue
			case jobs.StateFailed:
				s.jobs.Drop(j)
				s.syncJobGauges()
				continue
			default:
				s.m.coalesced.Inc()
				j.Followers.Add(1)
				res, err := s.wait(reqCtx, j)
				j.Followers.Add(-1)
				return res, "coalesced", err
			}
		}
		j, created, err := s.startJob(key, spec, canQueue)
		if err != nil {
			return nil, "", err
		}
		if !created {
			// Lost the creation race; loop to join the winner.
			continue
		}
		res, err := s.wait(reqCtx, j)
		return res, "miss", err
	}
}

// wait blocks until the job settles or the caller's request context ends.
func (s *Server) wait(reqCtx context.Context, j *jobs.Job) (any, error) {
	select {
	case <-j.Done():
		return j.Result()
	case <-reqCtx.Done():
		// This client gave up; the job keeps running for everyone else.
		return nil, reqCtx.Err()
	}
}

// startJob creates and admits the job for key: it starts executing
// immediately when a simulation slot is free, waits in the bounded FIFO
// when canQueue is set, and is shed otherwise. The boolean reports
// whether this call created the job; false with a nil error means another
// submitter won the creation race.
func (s *Server) startJob(key string, spec jobSpec, canQueue bool) (*jobs.Job, bool, error) {
	if s.Draining() {
		return nil, false, &apiError{
			status:  http.StatusServiceUnavailable,
			Code:    "draining",
			Message: "server is draining; no new simulations are accepted",
		}
	}
	j, created := s.jobs.Create(key, spec.id, spec)
	if !created {
		return j, false, nil
	}
	select {
	case s.sem <- struct{}{}:
		s.m.jobsCreated.Inc()
		s.syncJobGauges()
		s.begin(j)
	default:
		if canQueue && s.jobs.Enqueue(j) {
			s.m.jobsCreated.Inc()
			s.m.jobsQueued.Inc()
			s.syncJobGauges()
			return j, true, nil
		}
		s.jobs.Drop(j)
		if canQueue {
			return nil, false, errQueueFull
		}
		return nil, false, errSaturated
	}
	return j, true, nil
}

// begin marks the job running and launches its executor. The caller must
// hold a semaphore slot, which execute passes on or releases.
func (s *Server) begin(j *jobs.Job) {
	spec := j.Spec().(jobSpec)
	s.jobs.MarkRunning(j)
	if !spec.shard {
		s.m.cacheMisses.Inc()
	}
	s.m.simulations.Inc()
	s.m.inflight.Add(1)
	go s.execute(j)
}

// execute runs one admitted job to completion and settles it. The
// simulation context descends from the server, not the submitting
// request: the job outlives any client that asked for it (BeginDrain lets
// it finish, Close aborts it). On success the table lands in the LRU and
// the disk cache before the job settles, so waiters and cache readers
// agree.
func (s *Server) execute(j *jobs.Job) {
	spec := j.Spec().(jobSpec)
	key := j.Key()
	var result any
	var err error
	func() {
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Timeout)
		defer cancel()
		// Span propagation is value-only: the context descends from baseCtx
		// for cancellation, but re-attaching the submitter's span links every
		// cell event this job schedules back to its request.
		if spec.span != 0 {
			ctx = obs.WithSpan(ctx, spec.span)
		}
		simDone := s.events.Start(ctx, "serve", "simulation",
			obs.F("experiment", spec.id), obs.F("key", key))
		// A panicking simulation settles the job as a structured error
		// instead of unwinding the goroutine: without this recover, one
		// panic would leak a semaphore slot forever, keep serve.inflight
		// inflated, and park every waiter on a job that never settles.
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Inc()
				result, err = nil, &apiError{
					status:  http.StatusInternalServerError,
					Code:    "panic",
					Message: fmt.Sprint(p),
				}
			}
			simDone(err == nil)
		}()
		if spec.shard {
			result, err = s.runShard(ctx, spec.id, spec.rr)
		} else {
			result, err = s.run(ctx, spec.id, spec.rr)
		}
	}()

	if tab, ok := result.(*stats.Table); ok && tab != nil && err == nil && !spec.shard {
		s.mu.Lock()
		s.cache.add(key, tab)
		s.m.cacheSize.Set(int64(s.cache.len()))
		s.mu.Unlock()
		s.diskPut(key, spec.id, tab)
	}
	if n := s.jobs.Settle(j, result, err); n > 0 {
		s.m.jobsEvicted.Add(uint64(n))
	}
	if err != nil {
		s.m.jobsFailed.Inc()
	} else {
		s.m.jobsCompleted.Inc()
	}
	s.syncJobGauges()
	s.m.inflight.Add(-1)
	// Hand the slot straight to the next queued job, if any, so the queue
	// drains FIFO without releasing and re-acquiring the semaphore.
	if next, ok := s.jobs.Dequeue(); ok {
		s.syncJobGauges()
		s.begin(next)
	} else {
		<-s.sem
	}
}

// syncJobGauges refreshes the job store gauges after a mutation.
func (s *Server) syncJobGauges() {
	s.m.jobsTracked.Set(int64(s.jobs.Len()))
	s.m.jobsQueue.Set(int64(s.jobs.QueueLen()))
}

// diskGet probes the persistent cache, counting the outcome.
func (s *Server) diskGet(key string) (*stats.Table, bool) {
	if s.disk == nil {
		return nil, false
	}
	t, hit, stale := s.disk.get(key)
	switch {
	case hit:
		s.m.diskHits.Inc()
	case stale:
		s.m.diskStale.Inc()
	default:
		s.m.diskMisses.Inc()
	}
	return t, hit
}

// diskPut writes a completed table to the persistent cache, counting the
// write and any evictions. Write failures are counted, not fatal: the
// table was already served from memory.
func (s *Server) diskPut(key, id string, t *stats.Table) {
	if s.disk == nil {
		return
	}
	evicted, err := s.disk.put(key, id, t)
	if err != nil {
		s.m.diskErrors.Inc()
		return
	}
	s.m.diskWrites.Inc()
	if evicted > 0 {
		s.m.diskEvicts.Add(uint64(evicted))
	}
}

// simulate is the production run function: the experiment runners with the
// request's parameters, the server's trace store and its metrics sink. On
// a sharded replica the requested workloads are first restricted to this
// shard's partition, so the replica simulates only the rows it owns.
func (s *Server) simulate(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
	workloads := rr.Workloads
	if s.cfg.Shard.Of > 1 {
		workloads = s.cfg.Shard.Partition(workloads)
		if len(workloads) == 0 {
			return nil, &apiError{
				status: http.StatusBadRequest,
				Code:   "empty_shard",
				Message: fmt.Sprintf("shard %s owns none of the requested workloads; request more workloads or fetch format=shard artifacts and merge",
					s.cfg.Shard),
			}
		}
	}
	p := experiment.Params{
		Seed:      rr.Seed,
		TraceLen:  rr.TraceLen,
		Workloads: workloads,
		Store:     s.cfg.Store,
		Obs:       s.sink,
	}
	if rr.Seeds > 1 {
		seeds := make([]int64, rr.Seeds)
		for i := range seeds {
			seeds[i] = rr.Seed + int64(i)
		}
		return experiment.RunSeedsCtx(ctx, id, p, seeds)
	}
	return experiment.RunCtx(ctx, id, p)
}

// shardFile is the production artifact runner behind format=shard: the
// same parameters as simulate, run through experiment.RunShardFileCtx
// with the server's shard assignment.
func (s *Server) shardFile(ctx context.Context, id string, rr runRequest) (*experiment.ShardFile, error) {
	p := experiment.Params{
		Seed:      rr.Seed,
		TraceLen:  rr.TraceLen,
		Workloads: rr.Workloads,
		Store:     s.cfg.Store,
		Obs:       s.sink,
	}
	var seeds []int64
	if rr.Seeds > 1 {
		seeds = make([]int64, rr.Seeds)
		for i := range seeds {
			seeds[i] = rr.Seed + int64(i)
		}
	}
	return experiment.RunShardFileCtx(ctx, []string{id}, p, seeds, s.cfg.Shard)
}

// --- request parsing and canonicalization ---

// runRequest is the canonicalized form of one experiment request: defaults
// are filled in, workload names are trimmed, and the empty workload set is
// expanded to all eight benchmarks, so that every equivalent query string
// maps to the same coalescing/cache key.
type runRequest struct {
	Seed      int64
	TraceLen  int
	Seeds     int
	Workloads []string
	Format    string
}

// key is the coalescing and cache key: the canonical parameters, excluding
// the output format (all formats render from the same table).
func (rr runRequest) key(id string) string {
	return fmt.Sprintf("%s|seed=%d|len=%d|seeds=%d|wl=%s",
		id, rr.Seed, rr.TraceLen, rr.Seeds, strings.Join(rr.Workloads, ","))
}

// formats are the supported render formats: vpsim's output flags, plus
// "shard" for the mergeable artifact a sharded replica serves.
var formats = map[string]bool{"text": true, "csv": true, "md": true, "chart": true, "json": true, "shard": true}

// parseRunRequest validates and canonicalizes the query parameters.
func parseRunRequest(r *http.Request, cfg Config) (runRequest, *apiError) {
	q := r.URL.Query()
	bad := func(format string, args ...any) (runRequest, *apiError) {
		return runRequest{}, &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_params",
			Message: fmt.Sprintf(format, args...),
		}
	}
	rr := runRequest{Seed: 1, TraceLen: 200_000, Seeds: 1, Format: "text"}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return bad("seed %q is not an integer", v)
		}
		rr.Seed = n
	}
	if v := q.Get("tracelen"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return bad("tracelen %q is not an integer", v)
		}
		rr.TraceLen = n
	}
	if rr.TraceLen <= 0 || rr.TraceLen > cfg.MaxTraceLen {
		return bad("tracelen must be in [1, %d], have %d", cfg.MaxTraceLen, rr.TraceLen)
	}
	if v := q.Get("seeds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return bad("seeds %q is not an integer", v)
		}
		rr.Seeds = n
	}
	if rr.Seeds < 1 || rr.Seeds > cfg.MaxSeeds {
		return bad("seeds must be in [1, %d], have %d", cfg.MaxSeeds, rr.Seeds)
	}
	if v := q.Get("workloads"); v != "" {
		for _, name := range strings.Split(v, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := workload.Get(name); !ok {
				return bad("unknown workload %q (have %s)", name, strings.Join(workload.Names(), ", "))
			}
			if slices.Contains(rr.Workloads, name) {
				return bad("workload %q listed twice", name)
			}
			rr.Workloads = append(rr.Workloads, name)
		}
	}
	if len(rr.Workloads) == 0 {
		rr.Workloads = workload.Names()
	}
	if v := q.Get("format"); v != "" {
		if !formats[v] {
			return bad("unknown format %q (have text, csv, md, chart, json, shard)", v)
		}
		rr.Format = v
	}
	return rr, nil
}

// --- rendering ---

// tableFormat reads the format parameter of an endpoint that renders
// tables only: text by default, else csv, md, chart or json.
func tableFormat(r *http.Request) (string, *apiError) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	if !formats[format] || format == "shard" {
		return "", &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_params",
			Message: fmt.Sprintf("unknown format %q (have text, csv, md, chart, json)", format),
		}
	}
	return format, nil
}

// renderTables writes tabs in format, separated by a blank line. The text,
// csv, md and chart formats are byte-identical to vpsim's output for the
// same parameters; json marshals v instead, so each endpoint keeps its
// JSON shape.
func renderTables(w http.ResponseWriter, format string, v any, tabs ...*stats.Table) {
	if format == "json" {
		writeJSON(w, http.StatusOK, v)
		return
	}
	contentType := "text/plain; charset=utf-8"
	switch format {
	case "csv":
		contentType = "text/csv; charset=utf-8"
	case "md":
		contentType = "text/markdown; charset=utf-8"
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	for i, tab := range tabs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		var err error
		switch format {
		case "csv":
			err = tab.RenderCSV(w)
		case "md":
			err = tab.RenderMarkdown(w)
		case "chart":
			err = tab.RenderChart(w)
		default:
			err = tab.Render(w)
		}
		if err != nil {
			return // headers are out; a render error here means the client left
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return // client went away mid-write
	}
}

func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, map[string]*apiError{"error": e})
}

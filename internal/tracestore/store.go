// Package tracestore provides a process-wide, concurrency-safe cache of
// workload traces. The paper's evaluation sweeps many machine
// configurations over the same eight benchmark traces; without a cache
// every experiment.Run call rebuilds all of them from scratch, and
// multi-seed averaging multiplies that again. The store makes trace
// generation happen at most once per (workload, seed, length) per process:
//
//   - entries are keyed by (workload, seed) and hold the longest trace
//     generated so far for that pair; because the emulator is deterministic,
//     a request for any shorter length is served by sub-slicing the cached
//     prefix (a logical (workload, seed, traceLen) key with prefix
//     subsumption);
//   - total size is bounded by record count with least-recently-used
//     eviction;
//   - concurrent requests for the same key are deduplicated ("singleflight"):
//     exactly one goroutine runs the emulator, the rest wait and share the
//     result;
//   - hit/miss/evict/dedup counters are exposed through Stats.
//
// The store caches traces in two representations, and the representation
// is the third part of an entry's key: one entry map, one in-flight map,
// one LRU and one memory bound serve both. Get serves the materialized
// form (a flat []trace.Rec, sub-sliced per request); GetStream serves the
// streaming form (an immutable chunk.Seq of compressed chunks, DESIGN.md
// §13) whose memory charge is its compressed size, so paper-scale traces
// that would blow the flat bound stay cacheable. Prefix subsumption
// applies to both: a Seq covering n records serves every request for fewer
// via a bounded Cursor, at chunk granularity and with zero copying.
//
// Traces returned by the store are shared between callers and MUST be
// treated as read-only; the simulation engines only ever read them, and
// chunk.Seq is immutable by construction.
package tracestore

import (
	"container/list"
	"fmt"
	"sync"

	"valuepred/internal/chunk"
	"valuepred/internal/obs"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// DefaultLimit is the record-count bound of the Shared store: roughly 40
// full-length (200k-instruction) traces, comfortably holding several seeds
// of the eight benchmarks (~0.5 GB at 64 bytes per record).
const DefaultLimit = 8 << 20

// Stats is a snapshot of the store's behaviour counters.
type Stats struct {
	// Hits counts Get calls served from a cached trace. PrefixHits is the
	// subset served by sub-slicing an entry longer than the request.
	Hits       uint64
	PrefixHits uint64
	// Misses counts Get calls that ran the emulator.
	Misses uint64
	// Dedups counts Get calls that piggybacked on another goroutine's
	// in-flight generation instead of starting their own.
	Dedups uint64
	// Evictions counts entries discarded to respect the record bound.
	Evictions uint64
	// Records and Entries describe current occupancy. Records is the
	// charged total in record units: flat entries charge their length,
	// stream entries charge their compressed bytes divided by the nominal
	// record size (see recBytes). Entries counts flat entries only.
	Records int
	Entries int
	// StreamEntries counts cached chunk sequences; StreamRecords is the
	// number of logical trace records they cover; CompressedBytes is their
	// total compressed size (what they actually charge, in bytes).
	StreamEntries   int
	StreamRecords   int
	CompressedBytes int
}

// recBytes is the nominal in-memory size of one decoded trace.Rec, used to
// express a stream entry's compressed size in the record units of the
// store's bound (DefaultLimit's "~0.5 GB at 64 bytes per record").
const recBytes = 64

// key identifies a cached trace. Length is not part of the key: the entry
// for (workload, seed, stream) always holds the longest trace generated so
// far in that representation, and shorter requests reuse its prefix.
type key struct {
	workload string
	seed     int64
	stream   bool // the compressed chunk sequence rather than flat records
}

// entry is one cached trace: flat records, or for a stream key an
// immutable compressed chunk sequence shared by every caller that needs
// any prefix of it.
type entry struct {
	recs []trace.Rec
	seq  *chunk.Seq
	elem *list.Element // position in the LRU list; value is the key
}

// len is the number of trace records the entry covers.
func (e *entry) len() int {
	if e.seq != nil {
		return e.seq.Len()
	}
	return len(e.recs)
}

// cost is the entry's charge against the bound, in record units: the
// record count of a flat trace, or a sequence's compressed size over
// recBytes, rounded up so no entry is free.
func (e *entry) cost() int {
	if e.seq != nil {
		return (e.seq.Bytes() + recBytes - 1) / recBytes
	}
	return len(e.recs)
}

// flight is one in-progress generation that concurrent callers can join.
type flight struct {
	done chan struct{}
	n    int   // length being generated
	e    entry // the generated trace, valid once done is closed
	err  error
}

// storeMetrics are optional obs handles mirroring the Stats counters.
// Every obs method is a no-op through a nil handle, so an uninstrumented
// store pays only the nil-receiver checks.
type storeMetrics struct {
	hits          *obs.Counter
	prefixHits    *obs.Counter
	misses        *obs.Counter
	dedups        *obs.Counter
	evictions     *obs.Counter
	records       *obs.Gauge
	entries       *obs.Gauge
	streamEntries *obs.Gauge
	streamBytes   *obs.Gauge
}

// Store is a size-bounded, concurrency-safe trace cache.
type Store struct {
	mu       sync.Mutex
	limit    int // max total charged records; <= 0 means unbounded
	entries  map[key]*entry
	lru      *list.List // front = most recently used
	total    int
	inflight map[key]*flight
	stats    Stats
	obs      storeMetrics
	events   *obs.EventLog
	gen      func(name string, seed int64, n int) ([]trace.Rec, error)
	genSeq   func(name string, seed int64, n, chunkSize int) (*chunk.Seq, error)
}

// New returns a store bounded to at most limit cached records across all
// entries (limit <= 0 means unbounded).
func New(limit int) *Store {
	return &Store{
		limit:    limit,
		entries:  make(map[key]*entry),
		lru:      list.New(),
		inflight: make(map[key]*flight),
		gen:      workload.Trace,
		genSeq:   streamTrace,
	}
}

// streamTrace is the default streaming generator: it runs the emulator
// record-at-a-time through chunk.Build, so the flat trace never exists —
// peak memory during generation is one chunk plus one compressed block.
func streamTrace(name string, seed int64, n, chunkSize int) (*chunk.Seq, error) {
	src, err := workload.Open(name, seed, n)
	if err != nil {
		return nil, err
	}
	q, err := chunk.Build(src, n, chunkSize)
	if err != nil {
		return nil, err
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return q, nil
}

var shared = New(DefaultLimit)

// Shared returns the process-wide store used by the experiment runners and
// the valuepred facade.
func Shared() *Store { return shared }

// Instrument mirrors the store's Stats counters into reg under the
// "tracestore." prefix. Mirroring starts at the call; counters already
// accumulated in Stats are not replayed. A nil registry detaches.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg == nil {
		s.obs = storeMetrics{}
		return
	}
	s.obs = storeMetrics{
		hits:          reg.Counter("tracestore.hits"),
		prefixHits:    reg.Counter("tracestore.prefix_hits"),
		misses:        reg.Counter("tracestore.misses"),
		dedups:        reg.Counter("tracestore.dedups"),
		evictions:     reg.Counter("tracestore.evictions"),
		records:       reg.Gauge("tracestore.records"),
		entries:       reg.Gauge("tracestore.entries"),
		streamEntries: reg.Gauge("tracestore.stream_entries"),
		streamBytes:   reg.Gauge("tracestore.stream_bytes"),
	}
	s.syncGauges()
}

// InstrumentEvents attaches a structured event log: every cache miss that
// runs an emulator emits generate.start/generate.done events (stream
// misses: generate_stream.*) with the workload, seed, requested length and
// (on done) the wall milliseconds — the store's slowest operation,
// narrated. The wall-clock read stays inside obs (EventLog.Start), keeping
// this package clean under detlint. A nil log detaches.
func (s *Store) InstrumentEvents(l *obs.EventLog) {
	s.mu.Lock()
	s.events = l
	s.mu.Unlock()
}

// Get returns the first n records of the named workload's trace for seed,
// generating it at most once per process for any concurrent and future
// callers. The returned slice aliases the cache and must not be modified.
func (s *Store) Get(name string, seed int64, n int) ([]trace.Rec, error) {
	e, err := s.get(key{workload: name, seed: seed}, n, 0)
	if err != nil {
		return nil, err
	}
	return e.recs[:n:n], nil
}

// GetStream returns an immutable compressed chunk sequence covering at
// least the first n records of the named workload's trace for seed,
// generating it at most once per process (singleflight, shared with
// concurrent and future callers). Serve a specific prefix by wrapping the
// result in chunk.NewCursor(seq, n): the sequence may cover more records
// than requested (prefix subsumption at chunk granularity). chunkSize is
// the records-per-chunk for a fresh generation (<= 0 means
// chunk.DefaultSize); an already-cached sequence is served whatever size
// it was built with.
func (s *Store) GetStream(name string, seed int64, n, chunkSize int) (*chunk.Seq, error) {
	e, err := s.get(key{workload: name, seed: seed, stream: true}, n, chunkSize)
	return e.seq, err
}

// get returns the entry for k covering at least n records: a cached one
// (a hit), the result of a generation already in flight for at least n
// records (a dedup), or a fresh generation (a miss) that it caches for
// every later caller. chunkSize applies to a fresh stream generation.
func (s *Store) get(k key, n, chunkSize int) (entry, error) {
	if n <= 0 {
		return entry{}, fmt.Errorf("tracestore: trace length must be positive, have %d", n)
	}
	if _, ok := workload.Get(k.workload); !ok {
		return entry{}, fmt.Errorf("tracestore: unknown workload %q", k.workload)
	}
	for {
		s.mu.Lock()
		if e, ok := s.entries[k]; ok && e.len() >= n {
			s.lru.MoveToFront(e.elem)
			s.stats.Hits++
			s.obs.hits.Inc()
			if e.len() > n {
				s.stats.PrefixHits++
				s.obs.prefixHits.Inc()
			}
			hit := *e
			s.mu.Unlock()
			return hit, nil
		}
		if f, ok := s.inflight[k]; ok {
			if f.n >= n {
				// Join the in-flight generation and share its result.
				s.stats.Dedups++
				s.obs.dedups.Inc()
				s.mu.Unlock()
				<-f.done
				return f.e, f.err
			}
			// A shorter generation is in flight; wait for it to settle and
			// re-evaluate (we will then miss and generate the longer trace).
			s.mu.Unlock()
			<-f.done
			continue
		}
		f := &flight{done: make(chan struct{}), n: n}
		s.inflight[k] = f
		s.stats.Misses++
		s.obs.misses.Inc()
		ev := s.events
		s.mu.Unlock()

		// The store's ctx-free API predates spans; generation events carry
		// no span id (nil ctx renders span as "").
		event := "generate"
		if k.stream {
			event = "generate_stream"
		}
		genDone := ev.Start(nil, "tracestore", event,
			obs.F("workload", k.workload), obs.F("seed", k.seed), obs.F("n", n))
		if k.stream {
			f.e.seq, f.err = s.genSeq(k.workload, k.seed, n, chunkSize)
		} else {
			f.e.recs, f.err = s.gen(k.workload, k.seed, n)
		}
		genDone(f.err == nil)

		s.mu.Lock()
		delete(s.inflight, k)
		if f.err == nil {
			s.insert(k, f.e)
		}
		s.mu.Unlock()
		close(f.done)
		return f.e, f.err
	}
}

// Cached reports whether every named workload's trace for (seed, n) is
// already resident. The probe is deliberately inert: it does not touch
// LRU order and counts neither hits nor misses, so callers can use it to
// pick a cheaper all-hit path (see experiment's trace loading) without
// perturbing the cache's behaviour counters or eviction decisions.
func (s *Store) Cached(names []string, seed int64, n int) bool {
	return s.cached(names, seed, n, false)
}

// CachedStream is Cached for the streaming representation: it reports
// whether every named workload has a resident chunk sequence covering n
// records. Equally inert.
func (s *Store) CachedStream(names []string, seed int64, n int) bool {
	return s.cached(names, seed, n, true)
}

func (s *Store) cached(names []string, seed int64, n int, stream bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		e, ok := s.entries[key{workload: name, seed: seed, stream: stream}]
		if !ok || e.len() < n {
			return false
		}
	}
	return true
}

// insert stores e under k (replacing any shorter entry) and evicts
// least-recently-used entries of either representation until its charge
// fits the bound. Called with s.mu held. A trace larger than the whole
// bound is returned to the caller but not cached.
func (s *Store) insert(k key, e entry) {
	defer s.syncGauges()
	if old, ok := s.entries[k]; ok {
		if old.len() >= e.len() {
			return // a concurrent caller already cached an equal/longer trace
		}
		s.remove(k, old)
	}
	cost := e.cost()
	if s.limit > 0 && cost > s.limit {
		return
	}
	for s.limit > 0 && s.total+cost > s.limit && s.lru.Len() > 0 {
		lk := s.lru.Back().Value.(key)
		s.remove(lk, s.entries[lk])
		s.stats.Evictions++
		s.obs.evictions.Inc()
	}
	e.elem = s.lru.PushFront(k)
	s.entries[k] = &e
	s.total += cost
}

// remove drops the cached entry e for k. Called with s.mu held.
func (s *Store) remove(k key, e *entry) {
	s.total -= e.cost()
	s.lru.Remove(e.elem)
	delete(s.entries, k)
}

// occupancy fills st's occupancy fields from the resident entries. Called
// with s.mu held; the map is small (one entry per workload, seed and
// representation).
func (s *Store) occupancy(st *Stats) {
	st.Records = s.total
	for k, e := range s.entries {
		if !k.stream {
			st.Entries++
			continue
		}
		st.StreamEntries++
		st.StreamRecords += e.seq.Len()
		st.CompressedBytes += e.seq.Bytes()
	}
}

// syncGauges mirrors occupancy into obs. Called with s.mu held.
func (s *Store) syncGauges() {
	var st Stats
	s.occupancy(&st)
	s.obs.records.Set(int64(st.Records))
	s.obs.entries.Set(int64(st.Entries))
	s.obs.streamEntries.Set(int64(st.StreamEntries))
	s.obs.streamBytes.Set(int64(st.CompressedBytes))
}

// Preload warms the store with the traces of every named workload at the
// given seed and length, generating them concurrently (one emulator per
// goroutine, deduplicated with any other caller). It returns the first
// generation error, if any.
func (s *Store) Preload(names []string, seed int64, n int) error {
	return s.preload(names, seed, n, 0, false)
}

// PreloadStream is Preload for the streaming representation: it warms the
// store with a chunk sequence per named workload, generating concurrently.
func (s *Store) PreloadStream(names []string, seed int64, n, chunkSize int) error {
	return s.preload(names, seed, n, chunkSize, true)
}

func (s *Store) preload(names []string, seed int64, n, chunkSize int, stream bool) error {
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			_, errs[i] = s.get(key{workload: name, seed: seed, stream: stream}, n, chunkSize)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the store's counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	s.occupancy(&st)
	return st
}

// Reset drops every cached entry and zeroes the counters. In-flight
// generations complete and are cached as usual.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[key]*entry)
	s.lru.Init()
	s.total = 0
	s.stats = Stats{}
	s.syncGauges()
}

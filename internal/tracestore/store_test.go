package tracestore

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"valuepred/internal/chunk"
	"valuepred/internal/isa"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// testChunk is the records-per-chunk of stubbed stream entries: small, so
// a few hundred records span several chunks and prefixes cut through them.
const testChunk = 64

// stubRecs fabricates n records for seed: Seq and PC count up, and Val
// mixes the seed with the index so a compressed sequence grows with n.
func stubRecs(seed int64, n int) []trace.Rec {
	recs := make([]trace.Rec, n)
	for i := range recs {
		pc := isa.TextBase + uint64(i)*isa.InstBytes
		recs[i] = trace.Rec{
			Seq: uint64(i), PC: pc, Target: pc + isa.InstBytes, Op: isa.ADD, Rd: 5,
			Val: uint64(seed)<<40 ^ uint64(i)*0x9e3779b97f4a7c15,
		}
	}
	return recs
}

// stub installs fn as the store's generator for both representations; the
// stream side compresses fn's records into a chunk sequence.
func stub(s *Store, fn func(seed int64, n int) ([]trace.Rec, error)) {
	s.gen = func(_ string, seed int64, n int) ([]trace.Rec, error) { return fn(seed, n) }
	s.genSeq = func(_ string, seed int64, n, chunkSize int) (*chunk.Seq, error) {
		recs, err := fn(seed, n)
		if err != nil {
			return nil, err
		}
		return chunk.Build(trace.NewSliceSource(recs), n, chunkSize)
	}
}

// newStubbed returns a store whose generators fabricate records locally
// (stubRecs) and count invocations, so cache behaviour can be tested
// without running the emulator.
func newStubbed(limit int) (*Store, *atomic.Int64) {
	s := New(limit)
	var calls atomic.Int64
	stub(s, func(seed int64, n int) ([]trace.Rec, error) {
		calls.Add(1)
		return stubRecs(seed, n), nil
	})
	return s, &calls
}

// A rep is one of the store's two trace representations, seen through
// the operations the cache tests use, so each test runs over both.
type rep struct {
	name   string
	stream bool
}

var reps = []rep{{"flat", false}, {"stream", true}}

// forEachRep runs fn as one subtest per representation.
func forEachRep(t *testing.T, fn func(t *testing.T, r rep)) {
	for _, r := range reps {
		t.Run(r.name, func(t *testing.T) { fn(t, r) })
	}
}

// get requests the first n records in r's representation and returns
// them decoded; a stream entry is read through a cursor bounded to n.
func (r rep) get(s *Store, name string, seed int64, n int) ([]trace.Rec, error) {
	if !r.stream {
		return s.Get(name, seed, n)
	}
	q, err := s.GetStream(name, seed, n, testChunk)
	if err != nil {
		return nil, err
	}
	if q.Len() < n {
		return nil, fmt.Errorf("GetStream(%s,%d,%d) covers only %d records", name, seed, n, q.Len())
	}
	c := chunk.NewCursor(q, n)
	recs := make([]trace.Rec, 0, n)
	for rec, ok := c.Next(); ok; rec, ok = c.Next() {
		recs = append(recs, rec)
	}
	return recs, c.Err()
}

func (r rep) preload(s *Store, names []string, seed int64, n int) error {
	if r.stream {
		return s.PreloadStream(names, seed, n, testChunk)
	}
	return s.Preload(names, seed, n)
}

func (r rep) cached(s *Store, names []string, seed int64, n int) bool {
	if r.stream {
		return s.CachedStream(names, seed, n)
	}
	return s.Cached(names, seed, n)
}

// cost is the charge, in record units, of a stubbed n-record entry: n for
// a flat trace, its compressed size over 64 bytes (rounded up) for a
// chunk sequence.
func (r rep) cost(t *testing.T, seed int64, n int) int {
	t.Helper()
	if !r.stream {
		return n
	}
	q, err := chunk.Build(trace.NewSliceSource(stubRecs(seed, n)), n, testChunk)
	if err != nil {
		t.Fatal(err)
	}
	return (q.Bytes() + 63) / 64
}

// entries is the number of resident entries of r's representation.
func (r rep) entries(st Stats) int {
	if r.stream {
		return st.StreamEntries
	}
	return st.Entries
}

func (r rep) mustGet(t *testing.T, s *Store, name string, seed int64, n int) []trace.Rec {
	t.Helper()
	recs, err := r.get(s, name, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("get(%s,%d,%d) returned %d records", name, seed, n, len(recs))
	}
	return recs
}

func TestKeying(t *testing.T) {
	forEachRep(t, func(t *testing.T, r rep) {
		s, calls := newStubbed(0)
		r.mustGet(t, s, "go", 1, 100)
		r.mustGet(t, s, "go", 1, 100)  // same key: hit
		r.mustGet(t, s, "gcc", 1, 100) // different workload: miss
		r.mustGet(t, s, "go", 2, 100)  // different seed: miss
		if got := calls.Load(); got != 3 {
			t.Errorf("generator ran %d times, want 3", got)
		}
		st := s.Stats()
		want := 2*r.cost(t, 1, 100) + r.cost(t, 2, 100)
		if st.Hits != 1 || st.Misses != 3 || r.entries(st) != 3 || st.Records != want {
			t.Errorf("stats = %+v, want 1 hit, 3 misses, 3 entries charging %d", st, want)
		}
		if r.stream && st.StreamRecords != 300 {
			t.Errorf("StreamRecords = %d, want 300", st.StreamRecords)
		}
		// Traces from different seeds must not alias.
		if a, b := r.mustGet(t, s, "go", 1, 1), r.mustGet(t, s, "go", 2, 1); a[0].Val == b[0].Val {
			t.Error("seeds share a cache entry")
		}
	})
}

func TestInvalidRequests(t *testing.T) {
	forEachRep(t, func(t *testing.T, r rep) {
		s := New(0)
		if _, err := r.get(s, "go", 1, 0); err == nil {
			t.Error("zero-length request accepted")
		}
		if _, err := r.get(s, "nonesuch", 1, 10); err == nil {
			t.Error("unknown workload accepted")
		}
	})
}

func TestGenerationErrorNotCached(t *testing.T) {
	forEachRep(t, func(t *testing.T, r rep) {
		s := New(0)
		boom := errors.New("boom")
		fail := true
		stub(s, func(seed int64, n int) ([]trace.Rec, error) {
			if fail {
				return nil, boom
			}
			return stubRecs(seed, n), nil
		})
		if _, err := r.get(s, "go", 1, 10); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
		if st := s.Stats(); r.entries(st) != 0 || st.Records != 0 {
			t.Fatalf("failed generation left an entry: %+v", st)
		}
		fail = false
		if _, err := r.get(s, "go", 1, 10); err != nil {
			t.Fatalf("error was cached: %v", err)
		}
	})
}

func TestPrefixReuse(t *testing.T) {
	forEachRep(t, func(t *testing.T, r rep) {
		s, calls := newStubbed(0)
		long := r.mustGet(t, s, "go", 1, 500)
		short := r.mustGet(t, s, "go", 1, 200)
		if calls.Load() != 1 {
			t.Fatalf("generator ran %d times, want 1 (prefix reuse)", calls.Load())
		}
		if !reflect.DeepEqual(short, long[:200]) {
			t.Error("short trace is not a prefix of the long one")
		}
		st := s.Stats()
		if st.PrefixHits != 1 {
			t.Errorf("PrefixHits = %d, want 1", st.PrefixHits)
		}
		if r.stream {
			// The whole cached sequence serves the shorter request.
			a, _ := s.GetStream("go", 1, 500, testChunk)
			b, _ := s.GetStream("go", 1, 200, testChunk)
			if a != b {
				t.Error("prefix request was served a different sequence")
			}
		} else if flat, _ := s.Get("go", 1, 200); cap(flat) != 200 {
			// The sub-slice must have a clipped capacity so callers cannot
			// append into the cached backing array.
			t.Errorf("prefix capacity = %d, want 200", cap(flat))
		}
		// Growing the request regenerates and replaces the entry.
		r.mustGet(t, s, "go", 1, 800)
		if calls.Load() != 2 {
			t.Errorf("generator ran %d times after growth, want 2", calls.Load())
		}
		if st, want := s.Stats(), r.cost(t, 1, 800); st.Records != want || r.entries(st) != 1 {
			t.Errorf("after growth stats = %+v, want one 800-record entry charging %d", st, want)
		}
	})
}

func TestLRUEviction(t *testing.T) {
	forEachRep(t, func(t *testing.T, r rep) {
		c := r.cost(t, 1, 100)
		limit := 2*c + c/2 // room for two 100-record traces, not three
		s, _ := newStubbed(limit)
		r.mustGet(t, s, "go", 1, 100)
		r.mustGet(t, s, "gcc", 1, 100)
		r.mustGet(t, s, "go", 1, 100) // touch go: gcc becomes least recent
		r.mustGet(t, s, "li", 1, 100) // evicts gcc
		st := s.Stats()
		if st.Evictions != 1 || r.entries(st) != 2 || st.Records != 2*c {
			t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
		}
		before := st.Misses
		r.mustGet(t, s, "go", 1, 100) // still cached
		r.mustGet(t, s, "li", 1, 100) // still cached
		r.mustGet(t, s, "gcc", 1, 100)
		if st := s.Stats(); st.Misses != before+1 {
			t.Errorf("misses went %d -> %d, want exactly one (the evicted gcc)", before, st.Misses)
		}
		// A trace larger than the whole bound is returned but not cached.
		if r.cost(t, 1, 1000) <= limit {
			t.Fatalf("a 1000-record entry fits the %d-record bound", limit)
		}
		r.mustGet(t, s, "perl", 1, 1000)
		if st := s.Stats(); st.Records > limit || r.cached(s, []string{"perl"}, 1, 1) {
			t.Errorf("oversized trace was cached: %+v", st)
		}
	})
}

func TestSingleflightDedup(t *testing.T) {
	forEachRep(t, func(t *testing.T, r rep) {
		s := New(0)
		var calls atomic.Int64
		entered := make(chan struct{})
		release := make(chan struct{})
		stub(s, func(seed int64, n int) ([]trace.Rec, error) {
			calls.Add(1)
			close(entered)
			<-release // hold the generation until every other caller has joined it
			return stubRecs(seed, n), nil
		})
		const callers = 16
		var wg sync.WaitGroup
		results := make([][]trace.Rec, callers)
		errs := make([]error, callers)
		wg.Add(callers)
		// The longest request registers the flight first, so every follower
		// can be served from it (a shorter concurrent request joins and
		// takes a prefix).
		go func() {
			defer wg.Done()
			results[0], errs[0] = r.get(s, "go", 1, 1000)
		}()
		<-entered
		for i := 1; i < callers; i++ {
			go func(i int) {
				defer wg.Done()
				n := 1000
				if i%2 == 1 {
					n = 600
				}
				results[i], errs[i] = r.get(s, "go", 1, n)
			}(i)
		}
		// Every follower increments Dedups before blocking on the flight;
		// wait for all of them to have joined, then let the generation
		// finish.
		for s.Stats().Dedups != callers-1 {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("caller %d: %v", i, err)
			}
		}
		if calls.Load() != 1 {
			t.Errorf("generator ran %d times under %d concurrent callers, want 1", calls.Load(), callers)
		}
		st := s.Stats()
		if st.Misses != 1 || st.Dedups != callers-1 {
			t.Errorf("stats = %+v, want 1 miss and %d dedups", st, callers-1)
		}
		for i, recs := range results {
			want := 1000
			if i%2 == 1 {
				want = 600
			}
			if len(recs) != want {
				t.Errorf("caller %d got %d records, want %d", i, len(recs), want)
			}
		}
	})
}

func TestConcurrentMixedKeys(t *testing.T) {
	// Exercised under -race: many goroutines over few keys with growing
	// lengths and both representations, mixing hits, prefix hits, dedups,
	// regenerations and evictions across the shared bound.
	s, _ := newStubbed(10_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names := []string{"go", "gcc", "li"}
			for i := 0; i < 50; i++ {
				name := names[(g+i)%len(names)]
				n := 50 + 10*(i%7)
				recs, err := reps[(g+i)%2].get(s, name, int64(i%3), n)
				if err != nil {
					panic(err)
				}
				if len(recs) != n {
					panic(fmt.Sprintf("got %d records, want %d", len(recs), n))
				}
				_ = s.Stats()
			}
		}(g)
	}
	wg.Wait()
}

func TestDeterminism(t *testing.T) {
	// Cached traces must be bit-identical to freshly generated ones, and a
	// prefix of a longer run must equal a run of exactly that length.
	const n = 2_000
	fresh, err := workload.Trace("compress95", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	forEachRep(t, func(t *testing.T, r rep) {
		s := New(0)
		cached := r.mustGet(t, s, "compress95", 1, n)
		if !reflect.DeepEqual(cached, fresh) {
			t.Error("cached trace differs from a fresh emulator run")
		}
		longer := r.mustGet(t, s, "compress95", 1, 2*n)
		if !reflect.DeepEqual(longer[:n], fresh) {
			t.Error("prefix of a longer trace differs from a run of that length")
		}
	})
}

func TestPreloadAndReset(t *testing.T) {
	forEachRep(t, func(t *testing.T, r rep) {
		s, calls := newStubbed(0)
		names := []string{"go", "gcc", "li", "perl"}
		if err := r.preload(s, names, 1, 100); err != nil {
			t.Fatal(err)
		}
		if calls.Load() != int64(len(names)) {
			t.Errorf("preload ran the generator %d times, want %d", calls.Load(), len(names))
		}
		for _, name := range names {
			r.mustGet(t, s, name, 1, 100)
		}
		if st := s.Stats(); st.Hits != uint64(len(names)) || st.Misses != uint64(len(names)) {
			t.Errorf("stats after preload+get = %+v", st)
		}
		if err := r.preload(s, []string{"go", "nonesuch"}, 1, 10); err == nil {
			t.Error("preload of an unknown workload succeeded")
		}
		s.Reset()
		if st := s.Stats(); st != (Stats{}) {
			t.Errorf("stats after reset = %+v, want zero", st)
		}
		if r.cached(s, names[:1], 1, 1) {
			t.Error("an entry survived reset")
		}
	})
}

func TestCachedProbeIsInert(t *testing.T) {
	forEachRep(t, func(t *testing.T, r rep) {
		c := r.cost(t, 1, 100)
		s, _ := newStubbed(2*c + c/2) // room for two 100-record traces
		if r.cached(s, []string{"go"}, 1, 1) {
			t.Fatal("empty store reports a cached trace")
		}
		r.mustGet(t, s, "go", 1, 100)
		r.mustGet(t, s, "gcc", 1, 100)
		before := s.Stats()
		if !r.cached(s, []string{"go", "gcc"}, 1, 100) || !r.cached(s, []string{"go"}, 1, 50) {
			t.Error("resident traces not reported cached")
		}
		if r.cached(s, []string{"go"}, 1, 101) || r.cached(s, []string{"go", "li"}, 1, 10) || r.cached(s, []string{"go"}, 2, 10) {
			t.Error("a longer, missing or other-seed trace reported cached")
		}
		if after := s.Stats(); after != before {
			t.Errorf("probe moved the counters: %+v -> %+v", before, after)
		}
		// Probing go must not refresh it: li still evicts go, the least
		// recently used entry.
		r.mustGet(t, s, "li", 1, 100)
		if r.cached(s, []string{"go"}, 1, 1) || !r.cached(s, []string{"gcc", "li"}, 1, 100) {
			t.Error("the probe changed the LRU order")
		}
	})
}

// TestMixedRepresentations pins the shared bound: a flat entry and a
// stream entry for one key coexist, a stream entry is charged its
// compressed bytes over 64 (rounded up), and one LRU order evicts entries
// of either kind to make room for the other.
func TestMixedRepresentations(t *testing.T) {
	const n = 4096
	probe, _ := newStubbed(0)
	q, err := probe.GetStream("go", 1, n, testChunk)
	if err != nil {
		t.Fatal(err)
	}
	c := (q.Bytes() + 63) / 64
	if c < 100 {
		t.Fatalf("a %d-record stream entry charges %d records; the test needs more than 100", n, c)
	}

	flat, stream := reps[0], reps[1]
	s, calls := newStubbed(100 + c) // exactly one 100-record flat entry and one stream entry
	flat.mustGet(t, s, "go", 1, 100)
	stream.mustGet(t, s, "go", 1, n)
	if calls.Load() != 2 {
		t.Errorf("generator ran %d times, want 2 (one per representation)", calls.Load())
	}
	st := s.Stats()
	if st.Records != 100+c || st.Entries != 1 || st.StreamEntries != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want one entry of each kind charging 100+%d", st, c)
	}
	if st.StreamRecords != n || st.CompressedBytes != q.Bytes() {
		t.Errorf("StreamRecords = %d, CompressedBytes = %d, want %d and %d", st.StreamRecords, st.CompressedBytes, n, q.Bytes())
	}
	if !s.Cached([]string{"go"}, 1, 100) || s.Cached([]string{"go"}, 1, 101) || !s.CachedStream([]string{"go"}, 1, n) {
		t.Error("each representation's probe must see only its own entry")
	}

	// A one-record flat trace evicts the least recently used entry, the
	// flat one; the stream entry stays.
	flat.mustGet(t, s, "gcc", 1, 1)
	st = s.Stats()
	if st.Evictions != 1 || s.Cached([]string{"go"}, 1, 1) || !s.CachedStream([]string{"go"}, 1, n) {
		t.Fatalf("stats = %+v, want the flat go entry evicted", st)
	}
	if st.Records != 1+c {
		t.Errorf("Records = %d, want 1+%d", st.Records, c)
	}
	// A second stream entry no longer fits beside the first: the older
	// stream entry goes, the newer flat one stays.
	stream.mustGet(t, s, "gcc", 1, n)
	st = s.Stats()
	if st.Evictions != 2 || s.CachedStream([]string{"go"}, 1, 1) || !s.Cached([]string{"gcc"}, 1, 1) ||
		!s.CachedStream([]string{"gcc"}, 1, n) || st.Records != 1+c {
		t.Errorf("stats = %+v, want the stream go entry evicted and gcc resident in both forms", st)
	}
}

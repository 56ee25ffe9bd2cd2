package chunk

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"valuepred/internal/isa"
	"valuepred/internal/trace"
)

// synth builds a deterministic synthetic trace that exercises every record
// shape the codec distinguishes: ALU ops, loads/stores with addresses, and
// taken/untaken control transfers. Non-control records must have
// Target = PC + InstBytes (the codec reconstructs it), which matches what
// the emulator emits.
func synth(n int) []trace.Rec {
	recs := make([]trace.Rec, n)
	pc := isa.TextBase
	state := uint64(0x9e3779b97f4a7c15)
	for i := range recs {
		state = state*6364136223846793005 + 1442695040888963407
		r := trace.Rec{Seq: uint64(i), PC: pc}
		switch i % 7 {
		case 0:
			r.Op, r.Rd, r.Rs1, r.Imm = isa.ADDI, 5, 5, int64(state%97)-48
			r.Val = state
		case 3:
			r.Op, r.Rd, r.Rs1, r.Imm = isa.LD, 6, 7, 8
			r.Addr, r.Val = 0x8000+state%4096*8, state>>3
		case 5:
			r.Op, r.Rs1, r.Rs2, r.Imm = isa.SD, 7, 6, 16
			r.Addr, r.Val = 0x8000+state%4096*8, state>>5
		case 6:
			r.Op, r.Rs1, r.Rs2 = isa.BNE, 5, 0
			r.Taken = state%3 != 0
			if r.Taken {
				r.Imm = -int64(isa.InstBytes * (state%13 + 1))
				r.Target = uint64(int64(pc) + r.Imm)
			} else {
				r.Imm = isa.InstBytes * 4
				r.Target = pc + isa.InstBytes
			}
		default:
			r.Op, r.Rd, r.Rs1, r.Rs2 = isa.ADD, 8, 5, 6
			r.Val = state ^ uint64(i)
		}
		if !r.Op.IsControl() {
			r.Target = pc + isa.InstBytes
		}
		recs[i] = r
		pc = r.Target
	}
	return recs
}

func TestBuildCursorRoundtrip(t *testing.T) {
	recs := synth(20_500)
	q, err := Build(trace.NewSliceSource(recs), len(recs), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != len(recs) {
		t.Fatalf("Seq.Len() = %d, want %d", q.Len(), len(recs))
	}
	if want := 21; q.NumChunks() != want {
		t.Fatalf("NumChunks() = %d, want %d", q.NumChunks(), want)
	}
	if q.Bytes() <= 0 || q.Bytes() >= len(recs)*64 {
		t.Fatalf("Bytes() = %d, want in (0, %d): compression should beat raw", q.Bytes(), len(recs)*64)
	}
	got := trace.Collect(NewCursor(q, q.Len()), 0)
	if !reflect.DeepEqual(got, recs) {
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
			}
		}
		t.Fatal("length mismatch")
	}
}

func TestCursorPrefix(t *testing.T) {
	recs := synth(5000)
	q, err := Build(trace.NewSliceSource(recs), len(recs), 512)
	if err != nil {
		t.Fatal(err)
	}
	// A prefix that cuts mid-block.
	for _, n := range []int{0, 1, 511, 512, 513, 2345, 5000} {
		cur := NewCursor(q, n)
		if cur.Len() != n {
			t.Fatalf("Cursor.Len() = %d, want %d", cur.Len(), n)
		}
		got := trace.Collect(cur, 0)
		if len(got) != n {
			t.Fatalf("prefix %d: got %d records", n, len(got))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("prefix %d: record %d mismatch", n, i)
			}
		}
		if cur.Err() != nil {
			t.Fatalf("prefix %d: err = %v", n, cur.Err())
		}
		if got := drainViews(t, NewCursor(q, n)); !slices.Equal(got, recs[:n]) {
			t.Fatalf("prefix %d: View and Next served %d records, not the first %d of the trace", n, len(got), n)
		}
	}
	// Oversized and negative requests clamp.
	if got := NewCursor(q, 99999).Len(); got != 5000 {
		t.Fatalf("clamped Len() = %d, want 5000", got)
	}
	if got := NewCursor(q, -1).Len(); got != 0 {
		t.Fatalf("negative Len() = %d, want 0", got)
	}
}

// drainViews drains c through View calls of sizes 1 to 100, every third
// call a Next instead, and checks each view's shape: no more records than
// asked for, capacity capped, fewer only at a chunk boundary or the end.
func drainViews(t *testing.T, c *Cursor) []trace.Rec {
	t.Helper()
	var got []trace.Rec
	for call := 0; ; call++ {
		if call%3 == 2 {
			r, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, r)
			continue
		}
		n := call%100 + 1
		v := c.View(n)
		if len(v) == 0 {
			break
		}
		if len(v) > n || cap(v) != len(v) {
			t.Fatalf("View(%d) returned len %d cap %d", n, len(v), cap(v))
		}
		if end := len(got) + len(v); len(v) < n && end%c.seq.ChunkSize() != 0 && end != c.Len() {
			t.Fatalf("View(%d) returned %d records, ending at %d: neither a chunk boundary nor the end", n, len(v), end)
		}
		got = append(got, v...) // copy before the next call reuses the chunk
	}
	if c.Err() != nil {
		t.Fatalf("err = %v", c.Err())
	}
	if c.View(1) != nil {
		t.Fatal("View after the end returned records")
	}
	return got
}

func TestBuildShortSource(t *testing.T) {
	recs := synth(700)
	// Source ends before max: Build keeps what it got.
	q, err := Build(trace.NewSliceSource(recs), 10_000, 256)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 700 {
		t.Fatalf("Len() = %d, want 700", q.Len())
	}
	// max <= 0 drains the source.
	q2, err := Build(trace.NewSliceSource(recs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 700 || q2.ChunkSize() != DefaultSize {
		t.Fatalf("Len()=%d ChunkSize()=%d, want 700, %d", q2.Len(), q2.ChunkSize(), DefaultSize)
	}
}

// TestWindowMatchesSlice drives a Window with the mark/peek/advance/view
// pattern the fetch engines use and checks every view against the flat
// slice, including peeks that cross chunk boundaries and one group that
// outgrows the initial window capacity. It runs over a cursor, which the
// window fills from in bulk, and over the same cursor behind the bare
// Source interface, which the window fills from one record at a time.
func TestWindowMatchesSlice(t *testing.T) {
	recs := synth(10_000)
	q, err := Build(trace.NewSliceSource(recs), len(recs), 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct {
		name string
		src  trace.Source
	}{
		{"viewing", NewCursor(q, len(recs))},
		{"bare", struct{ trace.Source }{NewCursor(q, len(recs))}},
	} {
		t.Run(src.name, func(t *testing.T) { checkWindow(t, NewWindow(src.src), recs) })
	}
}

// checkWindow drains w with the fetch engines' access pattern and checks
// every peek and view against recs.
func checkWindow(t *testing.T, w *Window, recs []trace.Rec) {
	pos := 0
	group := 0
	for !w.EOF() {
		w.Mark()
		// Group sizes cycle 1..40, with one giant group (> windowCap) to
		// force the growth path.
		want := group%40 + 1
		if group == 50 {
			want = windowCap + 77
		}
		took := 0
		for took < want {
			r, ok := w.Peek(0)
			if !ok {
				break
			}
			if r != recs[pos+took] {
				t.Fatalf("group %d: peek(0) at %d = %+v, want %+v", group, pos+took, r, recs[pos+took])
			}
			// Occasionally peek ahead like the trace cache does.
			if k := took % 5; pos+took+k < len(recs) {
				if rk, ok := w.Peek(k); !ok || rk != recs[pos+took+k] {
					t.Fatalf("group %d: peek(%d) mismatch at %d", group, k, pos+took)
				}
			}
			w.Advance(1)
			took++
		}
		view := w.View()
		if len(view) != took {
			t.Fatalf("group %d: view len %d, want %d", group, len(view), took)
		}
		for i, r := range view {
			if r != recs[pos+i] {
				t.Fatalf("group %d: view[%d] mismatch", group, i)
			}
		}
		if cap(view) != len(view) {
			t.Fatalf("group %d: view not capacity-capped: cap %d len %d", group, cap(view), len(view))
		}
		pos += took
		group++
	}
	if pos != len(recs) {
		t.Fatalf("consumed %d records, want %d", pos, len(recs))
	}
}

// TestChunkResetLeavesNoState pins getChunk's reset without going through
// sync.Pool: a chunk dirtied to full capacity comes back holding no
// record, with its capacity kept. Every other field of Chunk, one added
// later included, is zeroed by the reset's literal.
func TestChunkResetLeavesNoState(t *testing.T) {
	c := &Chunk{Recs: synth(8)}
	c.reset()
	if len(c.Recs) != 0 || cap(c.Recs) != 8 {
		t.Errorf("reset chunk holds %d records with capacity %d, want 0 and 8", len(c.Recs), cap(c.Recs))
	}
}

// TestCursorAllocBudget pins the streaming invariant: draining a cursor
// over an N-record sequence allocates O(1) — the cursor itself plus pool
// slack — not O(N). This is the package-level half of the paper-scale
// memory gate (the end-to-end half lives in the root stream tests).
func TestCursorAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are checked without -race: sync.Pool drops items at random under the race detector")
	}
	recs := synth(100_000)
	q, err := Build(trace.NewSliceSource(recs), len(recs), 0)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() {
		c := NewCursor(q, q.Len())
		n := 0
		for {
			if _, ok := c.Next(); !ok {
				break
			}
			n++
		}
		if n != q.Len() {
			t.Fatalf("drained %d, want %d", n, q.Len())
		}
	}
	drain() // warm the chunk pool
	if allocs := testing.AllocsPerRun(5, drain); allocs > 20 {
		t.Fatalf("drain of %d records allocated %.0f times, budget 20: decode buffers are not being pooled", len(recs), allocs)
	}
}

// TestColdCursorAllocBudget pins that a cursor sizes a chunk fresh from
// the pool once: after two GCs empty the pool, draining a one-chunk
// sequence allocates that chunk's records plus slack, not the 5x that
// growing it by append costs.
func TestColdCursorAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are checked without -race: sync.Pool drops items at random under the race detector")
	}
	q, err := Build(trace.NewSliceSource(synth(DefaultSize)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCursor(q, q.Len())
	runtime.GC()
	runtime.GC() // the first GC moves pooled chunks to the victim cache, the second frees them
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for _, ok := c.Next(); ok; _, ok = c.Next() {
		n++
	}
	runtime.ReadMemStats(&after)
	if n != q.Len() {
		t.Fatalf("drained %d records, want %d", n, q.Len())
	}
	chunkBytes := uint64(DefaultSize) * uint64(unsafe.Sizeof(trace.Rec{}))
	if got, budget := after.TotalAlloc-before.TotalAlloc, chunkBytes+64<<10; got > budget {
		t.Fatalf("draining a cold one-chunk cursor allocated %d bytes, budget %d (one chunk of %d plus 64 KiB)", got, budget, chunkBytes)
	}
}

// BenchmarkCursor drains a 100k-record sequence from a warm pool through
// Next, which copies each record out, and through View, which lends them
// in place; ns/rec is the decode cost per record plus the reading.
func BenchmarkCursor(b *testing.B) {
	recs := synth(100_000)
	q, err := Build(trace.NewSliceSource(recs), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		read func(c *Cursor) int
	}{
		{"Next", func(c *Cursor) int {
			n := 0
			for _, ok := c.Next(); ok; _, ok = c.Next() {
				n++
			}
			return n
		}},
		{"View", func(c *Cursor) int {
			n := 0
			for v := c.View(40); len(v) > 0; v = c.View(40) {
				n += len(v)
			}
			return n
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				if n := bc.read(NewCursor(q, q.Len())); n != len(recs) {
					b.Fatalf("drained %d records, want %d", n, len(recs))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/rec")
		})
	}
}

package chunk

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"valuepred/internal/trace"
)

// reading is one way to drain a source: seed picks the mix of View sizes
// (1 to 100) and Next calls.
type reading struct {
	recs  []trace.Rec // every record served, copied
	sizes []int       // each call's record count: a view's length, or -1 for a Next
}

// readMixed drains src with View calls of sizes 1 to 100 and, every third
// call, a Next, copying each view before the next call.
func readMixed(src trace.Source, seed int) reading {
	v := src.(trace.Viewer)
	var out reading
	for call := 0; ; call++ {
		if (call+seed)%3 == 2 {
			r, ok := src.Next()
			if !ok {
				return out
			}
			out.recs = append(out.recs, r)
			out.sizes = append(out.sizes, -1)
			continue
		}
		n := (call*37+seed)%100 + 1
		recs := v.View(n)
		if len(recs) == 0 {
			return out
		}
		if len(recs) > n || cap(recs) != len(recs) {
			panic(fmt.Sprintf("View(%d) returned len %d cap %d", n, len(recs), cap(recs)))
		}
		out.recs = append(out.recs, recs...)
		out.sizes = append(out.sizes, len(recs))
	}
}

// settle waits up to a second for the goroutine count to fall back to n
// and reports the last count seen: a goroutine that has made its last
// handoff still takes a moment to exit.
func settle(n int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got > n && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return got
}

// TestShareServesWhatACursorServes requires every consumer of a Share to
// read exactly what a private cursor over the same prefix serves, call by
// call, for every prefix of a trace in 7-record chunks, however each
// consumer mixes Next with views of 1 to 100 records, and requires the
// consumers' views to alias one shared block.
func TestShareServesWhatACursorServes(t *testing.T) {
	recs := synth(60)
	q, err := Build(trace.NewSliceSource(recs), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0, 1, 2, 5}
	for n := 0; n <= len(recs); n++ {
		got := make([]reading, len(seeds))
		var first [2]*trace.Rec
		var consumers []func(trace.Source)
		for i, seed := range seeds {
			consumers = append(consumers, func(src trace.Source) {
				if i < len(first) {
					if v := src.(trace.Viewer).View(3); len(v) > 0 {
						first[i] = unsafe.SliceData(v)
						got[i].recs, got[i].sizes = append(got[i].recs, v...), []int{len(v)}
					}
				}
				r := readMixed(src, seed)
				got[i].recs = append(got[i].recs, r.recs...)
				got[i].sizes = append(got[i].sizes, r.sizes...)
			})
		}
		c := NewCursor(q, n)
		if err := Share(context.Background(), c, consumers...); err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		if c.Err() != nil {
			t.Fatalf("prefix %d: cursor err = %v", n, c.Err())
		}
		for i, seed := range seeds {
			private := NewCursor(q, n)
			var want reading
			if i < len(first) {
				if v := private.View(3); len(v) > 0 {
					want.recs, want.sizes = append(want.recs, v...), []int{len(v)}
				}
			}
			r := readMixed(private, seed)
			want.recs = append(want.recs, r.recs...)
			want.sizes = append(want.sizes, r.sizes...)
			if !slices.Equal(got[i].recs, recs[:n]) || !slices.Equal(got[i].recs, want.recs) {
				t.Fatalf("prefix %d, consumer %d: read %d records, not the %d a private cursor serves", n, i, len(got[i].recs), len(want.recs))
			}
			if !slices.Equal(got[i].sizes, want.sizes) {
				t.Fatalf("prefix %d, consumer %d: call sizes %v, a private cursor's %v", n, i, got[i].sizes, want.sizes)
			}
		}
		if n > 0 && first[0] != first[1] {
			t.Fatalf("prefix %d: the consumers' first views do not alias one block", n)
		}
	}
}

// TestShareConsumersThatStop covers consumers that take part in only some
// of the read: one that stops early, one that reads nothing, none at all
// and a source with nothing in it.
func TestShareConsumersThatStop(t *testing.T) {
	recs := synth(100)
	q, err := Build(trace.NewSliceSource(recs), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	var early, full []trace.Rec
	ran := false
	err = Share(context.Background(), NewCursor(q, q.Len()),
		func(src trace.Source) {
			for range 10 {
				r, _ := src.Next()
				early = append(early, r)
			}
		},
		func(trace.Source) { ran = true },
		func(src trace.Source) { full = readMixed(src, 1).recs },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !ran || !slices.Equal(early, recs[:10]) || !slices.Equal(full, recs) {
		t.Fatalf("ran = %v, early read %d records, full read %d of %d", ran, len(early), len(full), len(recs))
	}

	c := NewCursor(q, q.Len())
	if err := Share(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if got := trace.Collect(c, 0); !slices.Equal(got, recs) {
		t.Fatalf("Share without consumers consumed its source: %d records left of %d", len(got), len(recs))
	}

	reads := 0
	err = Share(context.Background(), NewCursor(q, 0),
		func(src trace.Source) { reads += len(readMixed(src, 0).recs) },
		func(src trace.Source) { reads += len(readMixed(src, 2).recs) })
	if err != nil || reads != 0 {
		t.Fatalf("empty source: err = %v, %d records read", err, reads)
	}
}

// TestSharePanickingConsumer requires a consumer's panic to end every other
// consumer's stream, then to surface from Share with its value, and to
// leave no goroutine behind.
func TestSharePanickingConsumer(t *testing.T) {
	q, err := Build(trace.NewSliceSource(synth(100)), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	var before, after int
	func() {
		defer func() {
			if p := recover(); p != "consumer broke" {
				t.Fatalf("Share panicked with %v", p)
			}
		}()
		_ = Share(context.Background(), NewCursor(q, q.Len()),
			func(src trace.Source) { before = len(readMixed(src, 0).recs) },
			func(src trace.Source) {
				src.(trace.Viewer).View(7)
				panic("consumer broke")
			},
			func(src trace.Source) { after = len(readMixed(src, 1).recs) })
		t.Fatal("Share returned past a panicking consumer")
	}()
	if before != 7 || after != 7 {
		t.Fatalf("the other consumers read %d and %d records, want the 7 of the block the panic hit", before, after)
	}
	if got := settle(start); got != start {
		t.Fatalf("%d goroutines after Share, %d before", got, start)
	}
}

// TestShareBadBlock requires a block that fails to decode to end every
// consumer's stream at the block before it and to surface as Cursor.Err.
func TestShareBadBlock(t *testing.T) {
	recs := synth(30)
	q, err := Build(trace.NewSliceSource(recs), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	q.blocks[2].data = q.blocks[2].data[:len(q.blocks[2].data)/2]
	c := NewCursor(q, q.Len())
	got := make([][]trace.Rec, 2)
	err = Share(context.Background(), c,
		func(src trace.Source) { got[0] = readMixed(src, 0).recs },
		func(src trace.Source) { got[1] = readMixed(src, 1).recs })
	if err != nil {
		t.Fatal(err)
	}
	if c.Err() == nil {
		t.Fatal("cursor err = nil past a truncated block")
	}
	for i, g := range got {
		if !slices.Equal(g, recs[:14]) {
			t.Fatalf("consumer %d read %d records, want the 14 before the bad block", i, len(g))
		}
	}
}

// TestShareCancel requires Share to stop at a canceled context: a consumer
// cancels after its first view, no consumer is lent another, Share returns
// the context's error and leaves no goroutine behind.
func TestShareCancel(t *testing.T) {
	q, err := Build(trace.NewSliceSource(synth(100)), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make([]int, 2)
	err = Share(ctx, NewCursor(q, q.Len()),
		func(src trace.Source) {
			v := src.(trace.Viewer)
			got[0] = len(v.View(100))
			cancel()
			for len(v.View(100)) > 0 {
				got[0]++
			}
		},
		func(src trace.Source) { got[1] = len(readMixed(src, 0).recs) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Share returned %v, want context.Canceled", err)
	}
	if got[0] != 7 || got[1] != 7 {
		t.Fatalf("consumers read %v records, want only the first block's 7 each", got)
	}
	if n := settle(start); n != start {
		t.Fatalf("%d goroutines after Share, %d before", n, start)
	}
}

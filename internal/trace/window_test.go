package trace_test

import (
	"testing"

	"valuepred/internal/chunk"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// The Window operations replay decodes, one op byte and one argument byte
// each.
const (
	opPeek    = iota // Peek(arg % 41)
	opAdvance        // Advance past up to arg % 41 records already peeked
	opMark
	opView
	opTake // Take(arg % 65)
	numOps
)

// replay runs ops on w and checks every peek and view against recs, the
// trace w reads: a view holds the records since the mark and is
// capacity-capped. It then drains w with Take and checks that w delivered
// all of recs. check, when non-nil, also sees every non-empty view with
// the index of its first record.
func replay(t *testing.T, w *trace.Window, recs []trace.Rec, ops []byte, check func(v []trace.Rec, at int)) {
	t.Helper()
	base, pos, seen := 0, 0, 0 // the mark, records consumed since it, records known to exist
	view := func(v []trace.Rec) {
		t.Helper()
		if len(v) != pos || cap(v) != len(v) {
			t.Fatalf("view of %d records at %d has len %d, cap %d", pos, base, len(v), cap(v))
		}
		for i := range v {
			if v[i] != recs[base+i] {
				t.Fatalf("view of %d records at %d: record %d is %+v, want %+v", pos, base, i, v[i], recs[base+i])
			}
		}
		if check != nil && len(v) > 0 {
			check(v, base)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		arg := int(ops[i+1])
		switch ops[i] % numOps {
		case opPeek:
			k := arg % 41
			got := w.Peek(k)
			if at := base + pos + k; at >= len(recs) {
				if got != nil {
					t.Fatalf("Peek(%d) at %d, past the end, = %+v", k, base+pos, *got)
				}
			} else if got == nil || *got != recs[at] {
				t.Fatalf("Peek(%d) at %d = %v, want %+v", k, base+pos, got, recs[at])
			} else {
				seen = max(seen, at+1)
			}
		case opAdvance:
			n := min(arg%41, seen-base-pos)
			w.Advance(n)
			pos += n
		case opMark:
			w.Mark()
			base, pos = base+pos, 0
		case opView:
			view(w.View())
		case opTake:
			n := arg % 65
			v := w.Take(n)
			base = base + pos
			pos = min(n, len(recs)-base)
			seen = max(seen, base+pos)
			view(v)
		}
	}
	for {
		v := w.Take(64)
		base = base + pos
		pos = min(64, len(recs)-base)
		view(v)
		if len(v) == 0 {
			break
		}
	}
	if base != len(recs) {
		t.Fatalf("delivered %d of %d records", base, len(recs))
	}
}

// lender is a Viewer over recs that lends views of the lengths lens names
// in turn (each byte plus one; all that is asked for with no lens). Each
// view is a copy in one buffer, which the next call poisons and
// overwrites, so a reader that keeps a view past that call reads wrong
// records. It remembers its latest view and where that starts.
type lender struct {
	recs  []trace.Rec
	lens  []byte
	buf   []trace.Rec
	views int         // views lent
	next  int         // index of the next record to lend
	last  []trace.Rec // the latest view
	at    int         // index of last[0] in recs
}

func (l *lender) Next() (trace.Rec, bool) {
	if v := l.View(1); len(v) > 0 {
		return v[0], true
	}
	return trace.Rec{}, false
}

func (l *lender) View(n int) []trace.Rec {
	for i := range l.buf {
		l.buf[i] = trace.Rec{Seq: ^uint64(0)}
	}
	k := min(n, len(l.recs)-l.next)
	if len(l.lens) > 0 {
		k = min(k, int(l.lens[l.views%len(l.lens)])+1)
	}
	l.views++
	l.buf = append(l.buf[:0], l.recs[l.next:l.next+k]...)
	l.last, l.at = l.buf[:k:k], l.next
	l.next += k
	return l.last
}

// inPlace returns a replay check of the rule a Window keeps over l: a view
// whose records all lie in l's latest lend aliases that lend, and any
// other view is a copy, aliasing nothing of l's buffer.
func (l *lender) inPlace(t *testing.T) func(v []trace.Rec, at int) {
	return func(v []trace.Rec, at int) {
		t.Helper()
		if off := at - l.at; off >= 0 && off+len(v) <= len(l.last) {
			if &v[0] != &l.last[off] {
				t.Fatalf("view of records %d..%d lies in the latest lend, %d..%d, but is a copy", at, at+len(v), l.at, l.at+len(l.last))
			}
			return
		}
		buf := l.buf[:cap(l.buf)]
		for i := range buf {
			if &v[0] == &buf[i] {
				t.Fatalf("view of records %d..%d is not in the latest lend, %d..%d, but aliases the lender's buffer", at, at+len(v), l.at, l.at+len(l.last))
			}
		}
	}
}

// sources returns a fresh Source over recs of every kind a Window reads:
// a lender lending views of the lengths lens names, a chunk cursor of
// size-record chunks, the slice itself, and the slice behind the bare
// Source interface.
func sources(t *testing.T, recs []trace.Rec, lens []byte, size int) map[string]trace.Source {
	t.Helper()
	q, err := chunk.Build(trace.NewSliceSource(recs), 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]trace.Source{
		"lender":  &lender{recs: recs, lens: lens},
		"viewing": chunk.NewCursor(q, q.Len()),
		"slice":   trace.NewSliceSource(recs),
		"bare":    struct{ trace.Source }{trace.NewSliceSource(recs)},
	}
}

// engineOps returns the operations of a fetch engine over groups groups:
// mark, then per record peek ahead up to 4, peek at it and advance past
// it, then view; every seventh group is followed by a Take. Group sizes
// cycle through 1..40, but for one group of 1100 records, which spans
// several 512-record chunks and 256-record blocks.
func engineOps(groups int) []byte {
	var ops []byte
	for g := range groups {
		n := g%40 + 1
		if g == 50 {
			n = 1100
		}
		ops = append(ops, opMark, 0)
		for k := range n {
			ops = append(ops, opPeek, byte(k%5), opPeek, 0, opAdvance, 1)
		}
		ops = append(ops, opView, 0)
		if g%7 == 0 {
			ops = append(ops, opTake, byte(g))
		}
	}
	return ops
}

// TestWindowMatchesSlice drives a Window over every kind of source with
// the fetch engines' pattern of operations and checks every peek and
// view against the flat slice.
func TestWindowMatchesSlice(t *testing.T) {
	recs := workload.MustTrace("gcc", 1, 10_000)
	ops := engineOps(600)
	for name, src := range sources(t, recs, []byte{6, 0, 40, 200}, 512) {
		t.Run(name, func(t *testing.T) { replay(t, trace.NewWindow(src), recs, ops, nil) })
	}
}

// TestWindowLendsInPlace holds a Window to copying only what must outlive
// a lend: over a lender of varied view lengths, with the fetch engines'
// operations and with Take alone, every view whose records lie in the
// latest lend aliases it, and every other is a copy.
func TestWindowLendsInPlace(t *testing.T) {
	recs := workload.MustTrace("li", 1, 10_000)
	takes := make([]byte, 0, 2000)
	for i := range 1000 {
		takes = append(takes, opTake, byte(i%65))
	}
	for _, ops := range [][]byte{engineOps(600), takes} {
		l := &lender{recs: recs, lens: []byte{255, 0, 40, 7, 200, 3}}
		replay(t, trace.NewWindow(l), recs, ops, l.inPlace(t))
	}
}

// FuzzWindow is a differential fuzz of Window against the flat slice: a
// fuzzer-chosen sequence of operations runs over the first n records of
// a trace from every kind of source, the lender's view lengths and the
// cursor's chunk size chosen by the fuzzer too, and every peek and view
// must equal the slice, every view capacity-capped, and the lender's
// views in place where they can be.
func FuzzWindow(f *testing.F) {
	recs := workload.MustTrace("li", 1, 300)
	f.Add(uint16(200), uint8(6), []byte{0, 3, 200}, engineOps(3))
	f.Add(uint16(300), uint8(63), []byte{39}, []byte{opTake, 64, opPeek, 40, opAdvance, 40, opView, 0})
	f.Add(uint16(5), uint8(0), []byte{}, []byte{opPeek, 9, opAdvance, 3, opMark, 0, opPeek, 1, opTake, 1})
	f.Fuzz(func(t *testing.T, n uint16, size uint8, lens, ops []byte) {
		recs := recs[:int(n)%(len(recs)+1)]
		for _, src := range sources(t, recs, lens, int(size)%64+1) {
			replay(t, trace.NewWindow(src), recs, ops, nil)
		}
	})
}

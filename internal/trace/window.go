package trace

import "math"

// blockSize is how many records a Window reads from a bare Source at a
// time, one Next each: several fetch groups' worth.
const blockSize = 256

// Window is how the machines read a Source. A fetch engine peeks a few
// records ahead, advances past those it delivers and takes the records
// since the last Mark as the cycle's group (View); perfect fetch takes the
// next n records at once (Take).
//
// A Window reads a Viewer's records in place, one lend (View) at a time,
// and copies only what must outlive a lend. When a peek or a Take reaches
// past the current lend, the records from the mark on are copied into the
// window's own buffer before the source is asked for its next lend, and a
// view across the two lends is assembled there. Over a chunk cursor that
// is the group that straddles two chunks, and any group delivered from
// records peeked before the straddle; over a slice, the records from the
// last mark, when the window asks past the end. A bare Source is read
// into a block of the window's own, blockSize records at a time.
//
// Views, and the records Peek points to, are read-only and valid until
// the next Peek, Mark or Take, any of which may ask the source for its
// next lend or reuse the window's buffer. That is the fetch.Group.Recs
// lifetime: an engine takes its group's view last in NextGroup. Views are
// capacity-capped, so an append copies.
type Window struct {
	src    Source
	viewer Viewer // src, when it lends its records in place
	head   []Rec  // records from the mark on, copied out of earlier lends
	cur    []Rec  // the current lend, read in place; its records follow head's
	at     int    // the cursor's index in cur; negative while it is in head
	block  []Rec  // a bare Source's records, read by Next; cur aliases it
}

// NewWindow returns a Window over src.
func NewWindow(src Source) *Window {
	v, _ := src.(Viewer)
	return &Window{src: src, viewer: v}
}

// Peek returns the record k places past the cursor without consuming it,
// or nil if the trace ends first.
func (w *Window) Peek(k int) *Rec {
	if i := w.at + k; uint(i) < uint(len(w.cur)) {
		return &w.cur[i]
	}
	return w.peekPinned(k)
}

// peekPinned is Peek for a record in head or past the current lend.
func (w *Window) peekPinned(k int) *Rec {
	for w.at+k >= len(w.cur) {
		if !w.fill() {
			return nil
		}
	}
	if i := w.at + k; i >= 0 {
		return &w.cur[i]
	}
	return &w.head[len(w.head)+w.at+k]
}

// Advance consumes n records. The caller must have peeked at least n
// ahead.
func (w *Window) Advance(n int) { w.at += n }

// Mark starts the next view at the cursor and releases the records
// before it.
func (w *Window) Mark() {
	if w.at < 0 {
		w.head = w.head[:copy(w.head, w.head[len(w.head)+w.at:])]
	} else {
		w.cur, w.head, w.at = w.cur[w.at:], w.head[:0], 0
	}
}

// View returns the records consumed since the mark.
func (w *Window) View() []Rec {
	if len(w.head) == 0 {
		return w.cur[:w.at:w.at]
	}
	if w.at > 0 {
		w.head = append(w.head, w.cur[:w.at]...)
		w.cur, w.at = w.cur[w.at:], 0
	}
	n := len(w.head) + w.at
	return w.head[:n:n]
}

// Take marks the cursor and consumes and returns the next n records, or
// all that are left if the trace ends first.
func (w *Window) Take(n int) []Rec {
	w.Mark()
	for len(w.head)+len(w.cur) < n && w.fill() {
	}
	w.at = min(n, len(w.head)+len(w.cur)) - len(w.head)
	return w.View()
}

// fill takes the source's next lend, first copying the current one into
// head: its records are all from the mark on, and the next call on the
// source may reuse them. It reports false at the end of the trace.
func (w *Window) fill() bool {
	w.head = append(w.head, w.cur...)
	w.at -= len(w.cur)
	if w.viewer != nil {
		w.cur = w.viewer.View(math.MaxInt)
		return len(w.cur) > 0
	}
	if w.block == nil {
		w.block = make([]Rec, blockSize)
	}
	n := 0
	for ; n < len(w.block); n++ {
		r, ok := w.src.Next()
		if !ok {
			break
		}
		w.block[n] = r
	}
	w.cur = w.block[:n]
	return n > 0
}

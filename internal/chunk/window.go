package chunk

import "valuepred/internal/trace"

// windowCap is the initial window capacity in records. Fetch groups are at
// most a few dozen instructions (the trace cache peeks ≤ 32 ahead), so 256
// leaves ample slack; the buffer grows only if a single group ever
// outgrows it, and then stays at the high-water mark.
const windowCap = 256

// Window adapts a trace.Source to the bounded lookahead pattern the fetch
// engines need: peek a few records ahead, advance past the ones consumed,
// and take a contiguous read-only view of the records between a mark and
// the current position. It is the streaming replacement for indexing into
// a flat []trace.Rec.
//
// Ownership: the Window owns its buffer outright and refills it from the
// source as peeks demand. Views returned by View alias that buffer and are
// valid only until the next Mark — compaction may then reuse their
// storage — which is exactly the fetch.Group.Recs lifetime ("until the
// next NextGroup call"). Records before the mark are unreachable and may
// be overwritten; records in [mark, pos+lookahead) are pinned.
type Window struct {
	src  trace.Source
	view trace.Viewer // src, when it lends its records in place; nil otherwise
	buf  []trace.Rec  // full-capacity backing buffer
	mark int          // start of the pinned region (current group start)
	pos  int          // consumption cursor; mark <= pos <= n
	n    int          // records filled: buf[:n] hold decoded records
	done bool         // source exhausted
}

// NewWindow returns a Window over src.
func NewWindow(src trace.Source) *Window {
	w := &Window{src: src, buf: make([]trace.Rec, windowCap)}
	w.view, _ = src.(trace.Viewer)
	return w
}

// Peek returns the record k positions ahead of the cursor without
// consuming it, filling from the source as needed. ok=false means the
// trace ends before that position.
func (w *Window) Peek(k int) (trace.Rec, bool) {
	for w.pos+k >= w.n {
		if !w.fill() {
			return trace.Rec{}, false
		}
	}
	return w.buf[w.pos+k], true
}

// Advance consumes n records. Callers must have peeked at least n ahead —
// the fetch engines always inspect a record before consuming it.
func (w *Window) Advance(n int) { w.pos += n }

// Mark pins the current position as the start of the next view and
// releases everything before it for reuse. Taking a new mark invalidates
// all previously returned views.
func (w *Window) Mark() { w.mark = w.pos }

// View returns the records between the last Mark and the cursor as a
// read-only, capacity-capped view of the window's buffer. The view is
// valid only until the next Mark; callers that need the records longer
// must copy them (pipeline.Run reads each record in place as it ingests
// the group, within the cycle, so the fetch path never does).
func (w *Window) View() []trace.Rec { return w.buf[w.mark:w.pos:w.pos] }

// EOF reports whether the trace is exhausted (no record at the cursor).
func (w *Window) EOF() bool {
	_, ok := w.Peek(0)
	return !ok
}

// fill pulls records from the source into the buffer, compacting away the
// region before the mark first and growing only if the pinned region fills
// the whole buffer. A viewing source fills every free slot it can with
// one copy of its next view; any other source fills one slot per Next.
func (w *Window) fill() bool {
	if w.done {
		return false
	}
	if w.n == len(w.buf) {
		if w.mark > 0 {
			copy(w.buf, w.buf[w.mark:w.n])
			w.n -= w.mark
			w.pos -= w.mark
			w.mark = 0
		}
		if w.n == len(w.buf) {
			grown := make([]trace.Rec, 2*len(w.buf))
			copy(grown, w.buf[:w.n])
			w.buf = grown
		}
	}
	if w.view != nil {
		got := copy(w.buf[w.n:], w.view.View(len(w.buf)-w.n))
		w.n += got
		w.done = got == 0
		return got > 0
	}
	r, ok := w.src.Next()
	if !ok {
		w.done = true
		return false
	}
	w.buf[w.n] = r
	w.n++
	return true
}

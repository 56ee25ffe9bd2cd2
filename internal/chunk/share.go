package chunk

import (
	"context"
	"math"

	"valuepred/internal/trace"
)

// Share reads src once for every consumer: it takes each view of src (for
// a Cursor, one decoded block) once and lends it to every consumer in
// declaration order. Each consumer reads a Source of its own whose views
// alias the shared block and keep the trace.Viewer lifetime, valid until
// that consumer's next call on it; Share takes the next view of src only
// after every live consumer has asked past the current one. A consumer
// that returns early stops taking part; the others read on.
//
// The consumers run as goroutines, one at a time, handing control to and
// from Share over unbuffered channels, so a pass occupies one CPU and the
// race detector sees every handoff. Share checks ctx before taking each
// next view: once ctx is done it ends every consumer's stream and returns
// ctx's error. A consumer that panics ends every other consumer's stream,
// and once they have all returned Share panics with its value on the
// caller's goroutine. No consumer goroutine outlives Share.
//
// Share reports nothing about src itself: a Cursor whose block fails to
// decode ends every stream, and its Err says why.
func Share(ctx context.Context, src trace.Viewer, consumers ...func(trace.Source)) error {
	back := make(chan any)
	live := make([]*shared, len(consumers))
	for i, fn := range consumers {
		live[i] = &shared{lent: make(chan lend), back: back}
		go live[i].run(fn)
	}
	var (
		err      error
		panicked any
		l        lend // the first round starts every consumer with nothing lent
	)
	for len(live) > 0 {
		kept := live[:0]
		for _, s := range live {
			s.lent <- l
			switch msg := <-back; msg {
			case asked:
				kept = append(kept, s)
			case returned:
			default:
				if panicked == nil {
					panicked = msg
				}
			}
		}
		live = kept
		if len(live) == 0 {
			break
		}
		switch {
		case panicked != nil:
			l = lend{end: true}
		case ctx.Err() != nil:
			err, l = ctx.Err(), lend{end: true}
		default:
			recs := src.View(math.MaxInt)
			l = lend{recs: recs, end: len(recs) == 0}
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	return err
}

// lend is what Share hands a consumer: the next shared view, or the end of
// its stream.
type lend struct {
	recs []trace.Rec
	end  bool
}

// returned and asked are the messages a consumer sends back when it hands
// control to Share: it has returned, or it asked past its view. Any other
// value is the value a consumer panicked with.
type signal int

const (
	returned signal = iota
	asked
)

// shared is one consumer's Source over a Share. cur is the unread rest of
// the view Share lent it, aliasing src's buffer; it is read-only.
type shared struct {
	cur  []trace.Rec
	end  bool
	lent chan lend
	back chan<- any
}

// run waits for the first lend, then runs fn over s and reports how it
// ended, returned or the value it panicked with, as its last act.
func (s *shared) run(fn func(trace.Source)) {
	defer func() {
		if p := recover(); p != nil {
			s.back <- p
			return
		}
		s.back <- returned
	}()
	s.take(<-s.lent)
	fn(s)
}

func (s *shared) take(l lend) { s.cur, s.end = l.recs, l.end }

// more hands control back to Share until it lends s a non-empty view, and
// reports false once the stream has ended.
func (s *shared) more() bool {
	for len(s.cur) == 0 {
		if s.end {
			return false
		}
		s.back <- asked
		s.take(<-s.lent)
	}
	return true
}

// Next implements trace.Source. The returned record is a copy.
func (s *shared) Next() (trace.Rec, bool) {
	if len(s.cur) == 0 && !s.more() {
		return trace.Rec{}, false
	}
	r := s.cur[0]
	s.cur = s.cur[1:]
	return r, true
}

var _ trace.Viewer = (*shared)(nil)

// View implements trace.Viewer: it lends up to n next records of the
// shared view in place, valid until s's next call.
func (s *shared) View(n int) []trace.Rec {
	if len(s.cur) == 0 && !s.more() {
		return nil
	}
	n = min(max(n, 0), len(s.cur))
	v := s.cur[:n:n]
	s.cur = s.cur[n:]
	return v
}

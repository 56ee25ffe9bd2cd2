// Package trace defines the dynamic instruction trace records produced by
// the functional emulator and consumed by every analysis and machine model
// in this repository. A trace plays the role of the paper's Shade traces:
// the committed, architecturally correct instruction stream of a workload,
// annotated with the produced values, branch outcomes and memory addresses.
package trace

import (
	"fmt"

	"valuepred/internal/isa"
)

// Rec is one dynamic (committed) instruction.
type Rec struct {
	// Seq is the dynamic appearance order, starting at 0. The paper's
	// Dynamic Instruction Distance between a producer p and consumer c is
	// c.Seq - p.Seq.
	Seq uint64
	// PC is the instruction's address.
	PC uint64
	// Op, Rd, Rs1, Rs2 and Imm mirror the static instruction.
	Op  isa.Opcode
	Rd  isa.Reg
	Rs1 isa.Reg
	Rs2 isa.Reg
	Imm int64
	// Val is the value written to Rd, valid only when Op.WritesRd() and
	// Rd != 0. For stores Val holds the stored value (useful for
	// store-to-load forwarding checks).
	Val uint64
	// Addr is the effective address of a load or store.
	Addr uint64
	// Taken reports whether a control instruction redirected the PC.
	// Unconditional jumps are always taken.
	Taken bool
	// Target is the address of the next dynamic instruction (fall-through
	// or branch/jump target).
	Target uint64
}

// WritesValue reports whether the record produced an observable register
// value, i.e. whether it is a candidate for value prediction. Writes to x0
// are architectural no-ops and are excluded.
func (r Rec) WritesValue() bool { return r.Op.WritesRd() && r.Rd != 0 }

// String renders the record for debugging.
func (r Rec) String() string {
	in := isa.Inst{Op: r.Op, Rd: r.Rd, Rs1: r.Rs1, Rs2: r.Rs2, Imm: r.Imm}
	s := fmt.Sprintf("#%d %#x: %s", r.Seq, r.PC, in)
	if r.WritesValue() {
		s += fmt.Sprintf(" ; %s=%d", r.Rd, int64(r.Val))
	}
	if r.Op.IsControl() {
		s += fmt.Sprintf(" ; taken=%v -> %#x", r.Taken, r.Target)
	}
	return s
}

// Source is a pull-style stream of trace records. Implementations must
// return records in dynamic program order with consecutive Seq numbers
// starting at 0.
type Source interface {
	// Next returns the next record, or ok=false at end of trace.
	Next() (rec Rec, ok bool)
}

// Viewer is a Source that can lend its records in place instead of
// copying them out one by one. *SliceSource and the chunk cursor
// (internal/chunk) are Viewers; RunPerfectFetch (internal/pipeline) and
// the fetch engines' streaming window read them through View.
type Viewer interface {
	Source
	// View returns and consumes up to n next records as a read-only,
	// capacity-capped view, valid until the next call on the source. It
	// returns fewer than n records only at a chunk boundary or at the end
	// of the trace, so for n > 0 an empty view means the end.
	View(n int) []Rec
}

// SliceSource streams an in-memory trace. It is the replayable form used by
// experiments that must run the same trace through several machine
// configurations.
type SliceSource struct {
	recs []Rec
	pos  int
}

// NewSliceSource returns a Source over recs.
func NewSliceSource(recs []Rec) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Rec, bool) {
	if s.pos >= len(s.recs) {
		return Rec{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

var _ Viewer = (*SliceSource)(nil)

// View implements Viewer. The view aliases the source's backing slice, as
// Recs does, so it stays valid as long as that slice does.
func (s *SliceSource) View(n int) []Rec {
	n = min(max(n, 0), len(s.recs)-s.pos)
	v := s.recs[s.pos : s.pos+n : s.pos+n]
	s.pos += n
	return v
}

// Reset rewinds the source to the beginning of the trace.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of records in the trace.
func (s *SliceSource) Len() int { return len(s.recs) }

// Recs returns the remaining (not yet consumed) records as a read-only
// view of the source's backing slice. The view aliases memory owned by
// whoever built the SliceSource — typically the tracestore's shared
// immutable cache — so callers must not mutate, append to or retain it
// beyond the source's lifetime. internal/fetch uses this to recover the
// zero-copy flat path when a Source is known to be slice-backed.
func (s *SliceSource) Recs() []Rec { return s.recs[s.pos:len(s.recs):len(s.recs)] }

// Collect drains a Source into a slice, stopping after max records
// (max <= 0 means no limit). The output is sized up front — to max, or to
// the source's known length when it exposes one (e.g. SliceSource) —
// instead of growing a nil slice by repeated doubling through
// multi-megabyte traces.
func Collect(src Source, max int) []Rec {
	capHint := max
	if l, ok := src.(interface{ Len() int }); ok {
		if n := l.Len(); capHint <= 0 || n < capHint {
			capHint = n
		}
	}
	var out []Rec
	if capHint > 0 {
		out = make([]Rec, 0, capHint)
	}
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Summary holds aggregate statistics of a trace.
type Summary struct {
	Insts         uint64 // total dynamic instructions
	ValueWriters  uint64 // records with WritesValue()
	Loads         uint64
	Stores        uint64
	CondBranches  uint64
	TakenCond     uint64
	Jumps         uint64
	StaticPCs     int // distinct instruction addresses touched
	TakenControls uint64
}

// SummarizeSource drains src and returns aggregate statistics. It never
// materializes the trace: memory stays proportional to the number of
// distinct static PCs, so cmd/vptrace can inspect 100M-record traces.
func SummarizeSource(src Source) Summary {
	z := NewSummarizer()
	for {
		r, ok := src.Next()
		if !ok {
			return z.Summary()
		}
		z.Add(r)
	}
}

// Summarizer accumulates Summary statistics one record at a time. It owns
// all of its state (a set of static PCs); records passed to Add are copied
// by value and never retained.
type Summarizer struct {
	s   Summary
	pcs map[uint64]struct{}
}

// NewSummarizer returns an empty Summarizer.
func NewSummarizer() *Summarizer {
	return &Summarizer{pcs: make(map[uint64]struct{})}
}

// Add folds one record into the running summary. The zero Summarizer is
// ready to use.
func (z *Summarizer) Add(r Rec) {
	if z.pcs == nil {
		z.pcs = make(map[uint64]struct{})
	}
	z.s.Insts++
	z.pcs[r.PC] = struct{}{}
	if r.WritesValue() {
		z.s.ValueWriters++
	}
	switch {
	case r.Op.IsLoad():
		z.s.Loads++
	case r.Op.IsStore():
		z.s.Stores++
	case r.Op.IsBranch():
		z.s.CondBranches++
		if r.Taken {
			z.s.TakenCond++
		}
	case r.Op.IsJump():
		z.s.Jumps++
	}
	if r.Op.IsControl() && r.Taken {
		z.s.TakenControls++
	}
}

// Summary returns the statistics accumulated so far.
func (z *Summarizer) Summary() Summary {
	s := z.s
	s.StaticPCs = len(z.pcs)
	return s
}

// String renders the summary as a short report.
func (s Summary) String() string {
	return fmt.Sprintf(
		"insts=%d writers=%d loads=%d stores=%d condbr=%d (taken %.1f%%) jumps=%d staticPCs=%d",
		s.Insts, s.ValueWriters, s.Loads, s.Stores, s.CondBranches,
		100*float64(s.TakenCond)/float64(max(s.CondBranches, 1)), s.Jumps, s.StaticPCs)
}

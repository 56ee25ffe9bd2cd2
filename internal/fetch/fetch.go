// Package fetch implements the instruction-fetch engines of Section 5. The
// sequential engine fetches the dynamic instruction stream up to a
// configurable number of taken branches per cycle (the paper sweeps 1, 2,
// 3, 4 and unlimited); the trace-cache engine (see tracecache.go) adds a
// 64-entry trace cache in front of a one-taken-branch core fetch path.
//
// Engines are trace-driven: they walk the committed (correct-path)
// instruction stream and consult a branch predictor to decide where fetch
// breaks. Wrong-path instructions are not simulated; a branch misprediction
// truncates the fetch group and the pipeline charges the redirect bubble.
package fetch

import (
	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/trace"
)

// Group is the set of instructions delivered in one fetch cycle.
type Group struct {
	// Recs are correct-path instructions, in program order. The slice is a
	// read-only view aliasing the engine's underlying trace (DESIGN.md §12
	// "Memory discipline" and §13 "Streaming traces"): engines deliver
	// contiguous windows of the record stream instead of copying, so a
	// group costs no allocation. Callers must not modify the elements. The
	// view's lifetime depends on how the engine was built: over a flat
	// trace (NewSequential etc.) it stays valid for as long as the trace
	// does; over a streaming Source (NewSequentialSource etc.) it is valid
	// only until the next NextGroup call, which may reuse the window
	// buffer behind it. pipeline.Run reads each record before its next
	// NextGroup call and keeps none, so it satisfies the stricter contract
	// already. The view is capacity-capped, so an append copies it
	// (TestGroupsAreCapacityCapped), and the root package's
	// TestStreamedTablesMatchMaterialized fails on any write through it.
	Recs []trace.Rec
	// Mispredict reports that the last instruction of Recs is a control
	// transfer the branch predictor got wrong; the pipeline must stall
	// fetch until that instruction resolves plus the branch penalty.
	Mispredict bool
	// FromTraceCache reports that the group was delivered by a trace-cache
	// hit (statistics).
	FromTraceCache bool
}

// Engine produces one fetch group per call.
type Engine interface {
	// NextGroup returns up to maxInsts instructions. ok=false signals end
	// of trace (an empty group with ok=true is a legal stall cycle).
	// g.Recs is a read-only view into the engine's trace — see Group.
	NextGroup(maxInsts int) (g Group, ok bool)
	// Stats returns cumulative fetch statistics.
	Stats() Stats
}

// Stats accumulates fetch-engine statistics.
type Stats struct {
	Cycles        uint64 // NextGroup calls
	Insts         uint64 // instructions delivered
	Predictions   uint64 // control instructions predicted
	Mispredicts   uint64
	TCLookups     uint64 // trace-cache engine only
	TCHits        uint64
	TCPartialHits uint64 // hits delivered as a truncated (partial) match
	TCHitInsts    uint64 // instructions delivered on the trace-cache path
	CoreInsts     uint64 // instructions delivered on the core path
}

// BranchAccuracy returns the fraction of correctly predicted control
// instructions. With no predictions at all (e.g. a branch-free trace)
// nothing was ever mispredicted, so the accuracy is 1 — returning 0 would
// report a perfect fetch stream as 0% accurate and drag down averaged
// accuracy columns.
func (s Stats) BranchAccuracy() float64 {
	if s.Predictions == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.Predictions)
}

// TCHitRate returns the trace-cache hit rate. With no lookups (e.g. a
// sequential engine, which has no trace cache) the rate is 0: unlike
// BranchAccuracy this is a benefit rate, and an absent cache delivers no
// benefit.
func (s Stats) TCHitRate() float64 {
	if s.TCLookups == 0 {
		return 0
	}
	return float64(s.TCHits) / float64(s.TCLookups)
}

// stream is a cursor over the committed trace. It runs in one of two
// modes: flat (recs holds the whole trace, views are zero-copy subslices
// of it) or streaming (win buffers a bounded window of a trace.Source,
// views alias the window and live only until its next mark). Engines are
// written against this one API and are bit-identical across the modes.
type stream struct {
	recs []trace.Rec   // flat mode: the trace; nil in streaming mode
	win  *chunk.Window // streaming mode: the bounded window; nil in flat mode
	pos  int           // logical records consumed (maintained in both modes)
}

// newStream picks the mode for src: a SliceSource recovers the zero-copy
// flat path (materialized traces lose nothing by arriving as a Source);
// anything else is wrapped in a bounded window.
func newStream(src trace.Source) stream {
	if ss, ok := src.(*trace.SliceSource); ok {
		return stream{recs: ss.Recs()}
	}
	return stream{win: chunk.NewWindow(src)}
}

func (s *stream) peek(k int) (trace.Rec, bool) {
	if s.win != nil {
		return s.win.Peek(k)
	}
	if s.pos+k >= len(s.recs) {
		return trace.Rec{}, false
	}
	return s.recs[s.pos+k], true
}

func (s *stream) advance(n int) {
	if s.win != nil {
		s.win.Advance(n)
	}
	s.pos += n
}

// mark pins the current position as the start of the next view and
// returns it. In streaming mode this also releases everything before the
// position for buffer reuse — which is what limits a previously returned
// view's lifetime to the next mark.
func (s *stream) mark() int {
	if s.win != nil {
		s.win.Mark()
	}
	return s.pos
}

// view returns the records consumed since start — which must be the value
// of the most recent mark — as a read-only, capacity-capped window (no
// copy; callers cannot append into the backing storage through it).
func (s *stream) view(start int) []trace.Rec {
	if s.win != nil {
		return s.win.View()
	}
	return s.recs[start:s.pos:s.pos]
}

func (s *stream) eof() bool {
	if s.win != nil {
		return s.win.EOF()
	}
	return s.pos >= len(s.recs)
}

// rasSize bounds the return-address stack depth (a standard companion of a
// BTB; recursion deeper than this falls back to BTB target prediction).
const rasSize = 32

// ctrl combines the branch predictor with a return-address stack and owns
// all control-flow prediction done by the fetch engines. Direct jumps
// (JAL) are always predicted — their target is computable at decode;
// returns (jalr x0, 0(ra)) are predicted by the RAS; calls push their
// return address.
type ctrl struct {
	bp  btb.Predictor
	ras []uint64
}

func isReturn(rec trace.Rec) bool {
	return rec.Op == isa.JALR && rec.Rd == 0 && rec.Rs1 == isa.RA
}

func isCall(rec trace.Rec) bool {
	return (rec.Op == isa.JAL || rec.Op == isa.JALR) && rec.Rd == isa.RA
}

// direction returns the predicted direction without changing any state
// (used by the trace cache's line-selection phase).
func (c *ctrl) direction(rec trace.Rec) bool {
	if rec.Op.IsJump() {
		return true
	}
	return c.bp.Predict(rec.PC, rec.Taken, rec.Target).Taken
}

// fetchControl predicts and trains for one fetched control instruction,
// returning whether the prediction fully matched (direction and target).
func (c *ctrl) fetchControl(rec trace.Rec) (correct bool) {
	defer func() {
		if isCall(rec) {
			if len(c.ras) == rasSize {
				copy(c.ras, c.ras[1:])
				c.ras = c.ras[:rasSize-1]
			}
			c.ras = append(c.ras, rec.PC+isa.InstBytes)
		}
	}()
	switch {
	case rec.Op == isa.JAL:
		return true
	case isReturn(rec) && len(c.ras) > 0:
		top := c.ras[len(c.ras)-1]
		c.ras = c.ras[:len(c.ras)-1]
		return top == rec.Target
	case rec.Op == isa.JALR:
		pred := c.bp.Predict(rec.PC, rec.Taken, rec.Target)
		c.bp.Update(rec.PC, true, rec.Target)
		return pred.TargetValid && pred.Target == rec.Target
	default:
		pred := c.bp.Predict(rec.PC, rec.Taken, rec.Target)
		c.bp.Update(rec.PC, rec.Taken, rec.Target)
		if pred.Taken != rec.Taken {
			return false
		}
		if rec.Taken && (!pred.TargetValid || pred.Target != rec.Target) {
			return false
		}
		return true
	}
}

// counted reports whether the control instruction counts as a prediction in
// the statistics (JAL is free).
func counted(rec trace.Rec) bool { return rec.Op != isa.JAL }

// Sequential is the conventional fetch engine: contiguous fetch that may
// continue through not-taken branches and up to MaxTaken taken control
// transfers per cycle.
type Sequential struct {
	s        stream
	c        ctrl
	maxTaken int // < 0 means unlimited
	stats    Stats
	obs      *obs.Sink
}

// NewSequential returns a sequential fetch engine over recs. maxTaken < 0
// lifts the taken-branch limit.
func NewSequential(recs []trace.Rec, bp btb.Predictor, maxTaken int) *Sequential {
	return &Sequential{s: stream{recs: recs}, c: ctrl{bp: bp}, maxTaken: maxTaken}
}

// NewSequentialSource is NewSequential over a streaming record source:
// the engine holds a bounded window of the trace instead of all of it, so
// memory stays O(window) at any trace length. Delivered Group.Recs views
// are valid only until the next NextGroup call (see Group). A
// *trace.SliceSource is detected and unwrapped to the zero-copy flat path.
func NewSequentialSource(src trace.Source, bp btb.Predictor, maxTaken int) *Sequential {
	return &Sequential{s: newStream(src), c: ctrl{bp: bp}, maxTaken: maxTaken}
}

// Stats implements Engine.
func (e *Sequential) Stats() Stats { return e.stats }

// NextGroup implements Engine.
func (e *Sequential) NextGroup(maxInsts int) (Group, bool) {
	if e.s.eof() {
		return Group{}, false
	}
	e.stats.Cycles++
	var g Group
	start := e.s.mark()
	taken := 0
	for e.s.pos-start < maxInsts {
		rec, ok := e.s.peek(0)
		if !ok {
			break
		}
		if rec.Op.IsControl() {
			correct := e.c.fetchControl(rec)
			if counted(rec) {
				e.stats.Predictions++
			}
			e.s.advance(1)
			if !correct {
				e.stats.Mispredicts++
				g.Mispredict = true
				break
			}
			if rec.Taken {
				taken++
				if e.maxTaken >= 0 && taken >= e.maxTaken {
					break
				}
			}
			continue
		}
		e.s.advance(1)
	}
	g.Recs = e.s.view(start)
	e.stats.Insts += uint64(len(g.Recs))
	e.stats.CoreInsts += uint64(len(g.Recs))
	if e.obs != nil {
		e.obs.FetchGroup(len(g.Recs), false, g.Mispredict)
	}
	return g, true
}

var _ Engine = (*Sequential)(nil)

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
	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/trace"
)

// Group is the set of instructions delivered in one fetch cycle.
type Group struct {
	// Recs are correct-path instructions, in program order: a read-only
	// view of the engine's trace.Window (DESIGN.md §12 "Memory
	// discipline"), which lends the source's records in place where it
	// can, valid until the next NextGroup call. pipeline.Run reads each
	// record in the cycle that fetches it and keeps none. The view is
	// capacity-capped, so an append copies it
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
	// g.Recs is valid until the next call — see Group.
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

func isReturn(rec *trace.Rec) bool {
	return rec.Op == isa.JALR && rec.Rd == 0 && rec.Rs1 == isa.RA
}

func isCall(rec *trace.Rec) bool {
	return (rec.Op == isa.JAL || rec.Op == isa.JALR) && rec.Rd == isa.RA
}

// direction returns the predicted direction without changing any state
// (used by the trace cache's line-selection phase).
func (c *ctrl) direction(rec *trace.Rec) bool {
	if rec.Op.IsJump() {
		return true
	}
	return c.bp.Predict(rec.PC, rec.Taken, rec.Target).Taken
}

// fetchControl predicts and trains for one fetched control instruction,
// returning whether the prediction fully matched (direction and target).
func (c *ctrl) fetchControl(rec *trace.Rec) (correct bool) {
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
func counted(rec *trace.Rec) bool { return rec.Op != isa.JAL }

// Sequential is the conventional fetch engine: contiguous fetch that may
// continue through not-taken branches and up to MaxTaken taken control
// transfers per cycle.
type Sequential struct {
	w        *trace.Window
	c        ctrl
	maxTaken int // < 0 means unlimited
	stats    Stats
	obs      *obs.Sink
}

// NewSequential returns a sequential fetch engine over recs. maxTaken < 0
// lifts the taken-branch limit.
func NewSequential(recs []trace.Rec, bp btb.Predictor, maxTaken int) *Sequential {
	return NewSequentialSource(trace.NewSliceSource(recs), bp, maxTaken)
}

// NewSequentialSource is NewSequential over a record source, which the
// engine reads through a trace.Window: memory stays O(window) at any
// trace length.
func NewSequentialSource(src trace.Source, bp btb.Predictor, maxTaken int) *Sequential {
	return &Sequential{w: trace.NewWindow(src), c: ctrl{bp: bp}, maxTaken: maxTaken}
}

// Stats implements Engine.
func (e *Sequential) Stats() Stats { return e.stats }

// NextGroup implements Engine.
func (e *Sequential) NextGroup(maxInsts int) (Group, bool) {
	e.w.Mark()
	if e.w.Peek(0) == nil {
		return Group{}, false
	}
	e.stats.Cycles++
	var g Group
	taken := 0
	for n := 0; n < maxInsts; n++ {
		rec := e.w.Peek(0)
		if rec == nil {
			break
		}
		e.w.Advance(1)
		if !rec.Op.IsControl() {
			continue
		}
		correct := e.c.fetchControl(rec)
		if counted(rec) {
			e.stats.Predictions++
		}
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
	}
	g.Recs = e.w.View()
	e.stats.Insts += uint64(len(g.Recs))
	e.stats.CoreInsts += uint64(len(g.Recs))
	if e.obs != nil {
		e.obs.FetchGroup(len(g.Recs), false, g.Mispredict)
	}
	return g, true
}

var _ Engine = (*Sequential)(nil)

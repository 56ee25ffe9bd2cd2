package fetch

import (
	"valuepred/internal/btb"
	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/trace"
)

// The trace cache has the organisation of Rotenberg et al. that the paper
// uses: 64 direct-mapped lines, each holding up to 32 instructions or 6
// basic blocks, backed by a conventional core fetch path that delivers up
// to 16 instructions and one taken branch per cycle.
const (
	tcEntries       = 64 // a power of two, so a line index is a mask
	tcMaxLineInsts  = 32
	tcMaxLineBlocks = 6
	tcCoreMaxInsts  = 16
)

// TCConfig parameterises the trace cache.
type TCConfig struct {
	// PartialMatching enables the improvement of Friendly, Patel & Patt
	// (the paper's reference [6]): when the branch predictor disagrees
	// with a line's embedded outcome at some branch, the matching prefix
	// of the line is still delivered (through that branch) instead of
	// falling back to the core fetch path entirely.
	PartialMatching bool
}

// DefaultTCConfig returns the paper's Section 5 trace cache, without
// partial matching.
func DefaultTCConfig() TCConfig { return TCConfig{} }

// lineInst is one instruction slot of a trace-cache line: its address and,
// for control instructions, the embedded branch outcome the trace was
// recorded with.
type lineInst struct {
	pc        uint64
	isControl bool
	isJAL     bool
	taken     bool
}

type tcLine struct {
	valid   bool
	startPC uint64
	insts   []lineInst
}

// TraceCache is the trace-cache fetch engine: a lookup by fetch address
// that must also match the multiple-branch predictor's predicted outcomes
// against the line's embedded outcomes; misses fall back to the core fetch
// path, whose delivered instructions feed the fill unit.
type TraceCache struct {
	s     stream
	c     ctrl
	cfg   TCConfig
	lines []tcLine

	// Fill unit state. Instructions are buffered per basic block and lines
	// are composed of whole blocks, so every line starts at a block entry —
	// the addresses fetch actually looks up.
	pending      []lineInst
	pendingStart uint64
	pendingBlks  int
	blockBuf     []lineInst
	blockStart   uint64

	stats Stats
	obs   *obs.Sink
}

// NewTraceCache returns a trace-cache engine over recs.
func NewTraceCache(recs []trace.Rec, bp btb.Predictor, cfg TCConfig) *TraceCache {
	return newTraceCache(stream{recs: recs}, bp, cfg)
}

// NewTraceCacheSource is NewTraceCache over a streaming record source: the
// engine buffers a bounded window (the line-selection phase peeks up to
// a line's 32 records ahead), so memory stays O(window + lines) at any
// trace length. Delivered Group.Recs views are valid only until the next
// NextGroup call (see Group). A *trace.SliceSource is detected and
// unwrapped to the zero-copy flat path.
func NewTraceCacheSource(src trace.Source, bp btb.Predictor, cfg TCConfig) *TraceCache {
	return newTraceCache(newStream(src), bp, cfg)
}

func newTraceCache(s stream, bp btb.Predictor, cfg TCConfig) *TraceCache {
	return &TraceCache{s: s, c: ctrl{bp: bp}, cfg: cfg, lines: make([]tcLine, tcEntries)}
}

// Stats implements Engine.
func (e *TraceCache) Stats() Stats { return e.stats }

func (e *TraceCache) index(pc uint64) *tcLine { return &e.lines[(pc>>2)&(tcEntries-1)] }

// NextGroup implements Engine.
func (e *TraceCache) NextGroup(maxInsts int) (Group, bool) {
	if e.s.eof() {
		return Group{}, false
	}
	e.stats.Cycles++
	head, _ := e.s.peek(0)
	line := e.index(head.PC)
	e.stats.TCLookups++
	if line.valid && line.startPC == head.PC {
		if g, hit, partial := e.tryLine(line, maxInsts); hit {
			e.stats.TCHits++
			if partial {
				e.stats.TCPartialHits++
			}
			e.stats.TCHitInsts += uint64(len(g.Recs))
			e.stats.Insts += uint64(len(g.Recs))
			if e.obs != nil {
				e.obs.FetchGroup(len(g.Recs), true, g.Mispredict)
			}
			return g, true
		}
	}
	g := e.coreFetch(maxInsts)
	if e.obs != nil {
		e.obs.FetchGroup(len(g.Recs), false, g.Mispredict)
	}
	return g, true
}

// tryLine attempts a trace-cache hit. Selection requires the line's
// embedded branch outcomes to match the branch predictor's predicted
// directions (without touching predictor state) and the line to still lie
// on the dynamic path PC-wise; the delivered prefix is then truncated at
// the first actual misprediction, if any. With partial matching enabled, a
// direction disagreement truncates the line to the matching prefix
// (through the disagreeing branch) instead of missing outright.
func (e *TraceCache) tryLine(line *tcLine, maxInsts int) (Group, bool, bool) {
	n := len(line.insts)
	if n > maxInsts {
		n = maxInsts
	}
	partial := false
	for k := 0; k < n; k++ {
		rec, ok := e.s.peek(k)
		if !ok {
			n = k
			break
		}
		li := line.insts[k]
		if rec.PC != li.pc {
			return Group{}, false, false // stale line off the dynamic path
		}
		if li.isControl && e.c.direction(rec) != li.taken {
			if !e.cfg.PartialMatching {
				return Group{}, false, false // predictor does not select this line
			}
			// Partial match: deliver through this branch; the predictor's
			// direction (not the line's) decides what happens next cycle.
			n = k + 1
			partial = true
			break
		}
	}
	if n == 0 {
		return Group{}, false, false
	}
	// Delivery: predict/train each control instruction in order and
	// truncate at the first actual misprediction.
	g := Group{FromTraceCache: true}
	cut := 0
	for k := 0; k < n; k++ {
		rec, _ := e.s.peek(k)
		cut = k + 1
		if rec.Op.IsControl() {
			correct := e.c.fetchControl(rec)
			if counted(rec) {
				e.stats.Predictions++
			}
			if !correct {
				g.Mispredict = true
				e.stats.Mispredicts++
				break
			}
		}
	}
	start := e.s.mark()
	e.s.advance(cut)
	g.Recs = e.s.view(start)
	return g, true, partial
}

// coreFetch is the backing instruction-cache path: contiguous fetch up to
// tcCoreMaxInsts instructions and one taken branch. Its delivered
// instructions feed the fill unit.
func (e *TraceCache) coreFetch(maxInsts int) Group {
	limit := min(maxInsts, tcCoreMaxInsts)
	var g Group
	start := e.s.mark()
	for e.s.pos-start < limit {
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
			e.fill(rec)
			if !correct {
				e.stats.Mispredicts++
				g.Mispredict = true
				break
			}
			if rec.Taken {
				break
			}
			continue
		}
		e.s.advance(1)
		e.fill(rec)
	}
	g.Recs = e.s.view(start)
	e.stats.Insts += uint64(len(g.Recs))
	e.stats.CoreInsts += uint64(len(g.Recs))
	return g
}

// fill feeds one core-fetched instruction to the fill unit. Instructions
// accumulate into a basic block (closed by any control instruction or by
// reaching the line capacity); closed blocks are appended to the pending
// line, which is finalised when it is full by instructions or blocks.
func (e *TraceCache) fill(rec trace.Rec) {
	if len(e.blockBuf) == 0 {
		e.blockStart = rec.PC
	}
	e.blockBuf = append(e.blockBuf, lineInst{
		pc:        rec.PC,
		isControl: rec.Op.IsControl(),
		isJAL:     rec.Op == isa.JAL,
		taken:     rec.Taken,
	})
	if rec.Op.IsControl() || len(e.blockBuf) >= tcMaxLineInsts {
		e.closeBlock()
	}
}

// closeBlock moves the buffered basic block into the pending line, starting
// a fresh line at the block's entry address when the block would not fit.
func (e *TraceCache) closeBlock() {
	if len(e.blockBuf) == 0 {
		return
	}
	if len(e.pending) == 0 {
		e.pendingStart = e.blockStart
	} else if len(e.pending)+len(e.blockBuf) > tcMaxLineInsts {
		e.finalize()
		e.pendingStart = e.blockStart
	}
	e.pending = append(e.pending, e.blockBuf...)
	e.blockBuf = e.blockBuf[:0]
	e.pendingBlks++
	if e.pendingBlks >= tcMaxLineBlocks || len(e.pending) >= tcMaxLineInsts {
		e.finalize()
	}
}

func (e *TraceCache) finalize() {
	if len(e.pending) == 0 {
		return
	}
	line := e.index(e.pendingStart)
	line.valid = true
	line.startPC = e.pendingStart
	line.insts = append(line.insts[:0], e.pending...)
	e.pending = e.pending[:0]
	e.pendingBlks = 0
}

var _ Engine = (*TraceCache)(nil)

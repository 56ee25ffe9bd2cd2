package fetch

import (
	"valuepred/internal/btb"
	"valuepred/internal/obs"
	"valuepred/internal/trace"
)

// CollapsingBuffer is the fetch engine of Conte et al. that the paper
// surveys in Section 2.2: an interleaved instruction cache reads two cache
// lines of 16 instructions per cycle — the line containing the fetch
// address and the line containing the predicted target of the first taken
// branch — and a collapsing buffer merges the valid instructions of both
// lines into one fetch group.
type CollapsingBuffer struct {
	w     *trace.Window
	c     ctrl
	stats Stats
	obs   *obs.Sink
}

const (
	cbLineInsts = 16 // instructions per aligned cache line
	cbLines     = 2  // (possibly noncontiguous) lines read per cycle
)

// NewCollapsingBufferSource returns a collapsing-buffer engine over a
// record source, which it reads through a trace.Window: memory stays
// O(window) at any trace length.
func NewCollapsingBufferSource(src trace.Source, bp btb.Predictor) *CollapsingBuffer {
	return &CollapsingBuffer{w: trace.NewWindow(src), c: ctrl{bp: bp}}
}

// Stats implements Engine.
func (e *CollapsingBuffer) Stats() Stats { return e.stats }

// lineEnd returns the first address past the aligned cache line of pc.
func (e *CollapsingBuffer) lineEnd(pc uint64) uint64 {
	const lineBytes = cbLineInsts * 4
	return (pc &^ (lineBytes - 1)) + lineBytes
}

// NextGroup implements Engine. Each cycle reads up to two cache lines:
// fetch proceeds within a line through not-taken branches (the collapsing
// buffer squeezes them out); a taken control transfer ends the current
// line's contribution and redirects the next line read to its target.
// Instructions are delivered until the last permitted line is exhausted
// or a misprediction occurs.
func (e *CollapsingBuffer) NextGroup(maxInsts int) (Group, bool) {
	e.w.Mark()
	if e.w.Peek(0) == nil {
		return Group{}, false
	}
	e.stats.Cycles++
	var g Group
	linesUsed := 0
	var end uint64
	newLine := true
	for n := 0; n < maxInsts; {
		rec := e.w.Peek(0)
		if rec == nil {
			break
		}
		if newLine {
			if linesUsed == cbLines {
				break
			}
			linesUsed++
			end = e.lineEnd(rec.PC)
			newLine = false
		}
		if rec.PC >= end {
			// Fall-through past the line boundary: the next instruction
			// needs another line read.
			newLine = true
			continue
		}
		e.w.Advance(1)
		n++
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
			// Redirect: the target lies in another (noncontiguous) line.
			newLine = true
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

var _ Engine = (*CollapsingBuffer)(nil)

package fetch

import (
	"testing"

	"valuepred/internal/btb"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// newCB returns a collapsing-buffer engine over recs.
func newCB(recs []trace.Rec, bp btb.Predictor) *CollapsingBuffer {
	return NewCollapsingBufferSource(trace.NewSliceSource(recs), bp)
}

func TestCollapsingBufferDelivery(t *testing.T) {
	recs := loopTrace(t, 100, 4) // 6-inst iterations with a taken back edge
	e := newCB(recs, btb.NewPerfect())
	var seq uint64
	groups := drain(t, e, 40)
	for _, g := range groups {
		for _, r := range g.Recs {
			if r.Seq != seq {
				t.Fatalf("out of order at seq %d", r.Seq)
			}
			seq++
		}
	}
	if seq != uint64(len(recs)) {
		t.Fatalf("delivered %d of %d", seq, len(recs))
	}
	if e.Stats().Cycles == 0 || e.Stats().Insts != uint64(len(recs)) {
		t.Errorf("stats = %+v", e.Stats())
	}
}

// TestCollapsingBufferLineLimits: each group touches at most two cache
// lines, so its instructions come from at most that many aligned regions /
// taken-branch targets.
func TestCollapsingBufferLineLimits(t *testing.T) {
	recs := loopTrace(t, 300, 1) // 3-inst iterations: many taken branches
	e := newCB(recs, btb.NewPerfect())
	for _, g := range drain(t, e, 1<<20) {
		taken := 0
		for _, r := range g.Recs {
			if r.Op.IsControl() && r.Taken {
				taken++
			}
		}
		// With 2 lines per cycle at most one taken branch can be crossed
		// (the second line's terminating taken branch ends the group).
		if taken > cbLines {
			t.Fatalf("group crossed %d taken branches with %d lines", taken, cbLines)
		}
		if len(g.Recs) > cbLines*cbLineInsts {
			t.Fatalf("group of %d insts exceeds %d lines of %d",
				len(g.Recs), cbLines, cbLineInsts)
		}
	}
}

// TestCollapsingBufferBandwidth: with a perfect BTB and a fetch limit
// above two lines, every cycle but the last reads exactly two line
// segments, a segment being a run of sequential instructions within one
// aligned 16-instruction (64-byte) line. Counting the segments straight
// from the trace, the engine must take half as many cycles, rounded up.
func TestCollapsingBufferBandwidth(t *testing.T) {
	recs := workload.MustTrace("ijpeg", 1, 20_000)
	segments := 0
	for i, r := range recs {
		if i == 0 || recs[i-1].Op.IsControl() && recs[i-1].Taken || r.PC/64 != recs[i-1].PC/64 {
			segments++
		}
	}
	e := newCB(recs, btb.NewPerfect())
	if got, want := len(drain(t, e, 64)), (segments+1)/2; got != want {
		t.Errorf("%d cycles for %d line segments, want %d", got, segments, want)
	}
	if e.Stats().Insts != uint64(len(recs)) {
		t.Errorf("delivered %d of %d", e.Stats().Insts, len(recs))
	}
}

func TestCollapsingBufferFallThroughLines(t *testing.T) {
	// A straight-line block longer than one cache line must consume two
	// line reads in a cycle.
	recs := loopTrace(t, 10, 40) // 42-inst iterations span 3 lines
	e := newCB(recs, btb.NewPerfect())
	g, ok := e.NextGroup(1 << 10)
	if !ok {
		t.Fatal("no group")
	}
	if len(g.Recs) > cbLines*cbLineInsts {
		t.Fatalf("group of %d exceeds two lines", len(g.Recs))
	}
	if len(g.Recs) <= cbLineInsts {
		t.Errorf("group of %d did not use the second line", len(g.Recs))
	}
}

func TestCollapsingBufferMispredict(t *testing.T) {
	recs := loopTrace(t, 50, 4)
	e := newCB(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()))
	sawMis := false
	for _, g := range drain(t, e, 64) {
		if g.Mispredict {
			sawMis = true
			if !g.Recs[len(g.Recs)-1].Op.IsControl() {
				t.Fatal("mispredict group does not end at a control instruction")
			}
		}
	}
	if !sawMis {
		t.Error("cold BTB never mispredicted")
	}
}

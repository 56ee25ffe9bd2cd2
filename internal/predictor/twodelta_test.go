package predictor

import (
	"testing"

	"valuepred/internal/isa"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

func TestTwoDeltaFiltersGlitches(t *testing.T) {
	// A loop index 0,1,2,3 that restarts at 0: the restart delta (-3)
	// appears once per period. The plain stride predictor mispredicts
	// twice per period (at the glitch and right after it); two-delta
	// mispredicts only once.
	seq := []uint64{0, 1, 2, 3}
	count := func(p Predictor) int {
		pc := uint64(0x1000)
		wrong := 0
		for i := 0; i < 80; i++ {
			v := seq[i%4]
			pr := p.Lookup(pc)
			if pr.HasValue && pr.Value != v {
				wrong++
			}
			p.Update(pc, v)
		}
		return wrong
	}
	plain := count(NewStride())
	twoDelta := count(NewTwoDeltaStride())
	if twoDelta >= plain {
		t.Errorf("two-delta (%d wrong) not better than plain stride (%d wrong)", twoDelta, plain)
	}
}

func TestTwoDeltaPerfectOnArithmetic(t *testing.T) {
	p := NewTwoDeltaStride()
	pc := uint64(0x2000)
	p.Update(pc, 10)
	p.Update(pc, 17)
	p.Update(pc, 24) // delta 7 seen twice: committed
	for v := uint64(31); v < 101; v += 7 {
		pr := p.Lookup(pc)
		if !pr.HasValue || pr.Value != v {
			t.Fatalf("predicted %d, want %d", pr.Value, v)
		}
		p.Update(pc, v)
	}
	if last, stride, ok := p.LastAndStride(pc); !ok || stride != 7 || last != 94 {
		t.Errorf("LastAndStride = %d, %d, %v", last, stride, ok)
	}
}

func TestTwoDeltaCold(t *testing.T) {
	p := NewTwoDeltaStride()
	if pr := p.Lookup(1); pr.HasValue {
		t.Error("cold table predicted")
	}
	p.Update(4, 5)
	// One observation: degenerate last-value (stride 0).
	if pr := p.Lookup(4); !pr.HasValue || pr.Value != 5 {
		t.Errorf("after one update: %+v", pr)
	}
	if NewClassifiedTwoDelta().Name() != "stride2d+2bc" {
		t.Error("classified two-delta name wrong")
	}
}

func TestLoadsOnly(t *testing.T) {
	recs := []trace.Rec{
		{Seq: 0, PC: 0x1000, Op: isa.LD, Rd: isa.T0, Val: 5},
		{Seq: 1, PC: 0x1004, Op: isa.ADDI, Rd: isa.T1, Val: 6},
	}
	p := NewLoadsOnlyFromSource(NewLastValue(), trace.NewSliceSource(recs))
	if p.Name() != "last-value/loads" {
		t.Errorf("name = %q", p.Name())
	}
	// Train both PCs; only the load learns.
	p.Update(0x1000, 5)
	p.Update(0x1004, 6)
	if pr := p.Lookup(0x1000); !pr.HasValue || pr.Value != 5 {
		t.Errorf("load not predicted: %+v", pr)
	}
	if pr := p.Lookup(0x1004); pr.HasValue {
		t.Errorf("non-load predicted: %+v", pr)
	}
	if _, _, ok := p.LastAndStride(0x1004); ok {
		t.Error("non-load exposed stride state")
	}
	if _, _, ok := p.LastAndStride(0x1000); !ok {
		t.Error("load missing stride state")
	}
}

func TestLoadsOnlyCoversFewer(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 80_000)
	all := EvaluateSource(NewClassifiedStride(), trace.NewSliceSource(recs))
	loads := EvaluateSource(NewLoadsOnlyFromSource(NewClassifiedStride(), trace.NewSliceSource(recs)), trace.NewSliceSource(recs))
	if loads.Attempted >= all.Attempted {
		t.Errorf("loads-only attempted %d >= all-inst %d", loads.Attempted, all.Attempted)
	}
	if loads.Attempted == 0 {
		t.Error("loads-only predicted nothing")
	}
}

func TestEvaluateByClass(t *testing.T) {
	recs := workload.MustTrace("li", 1, 40_000)
	ca := EvaluateByClassSource(NewStride(), trace.NewSliceSource(recs))
	total := ca.ALU.Eligible + ca.Load.Eligible + ca.Jump.Eligible
	plain := EvaluateSource(NewStride(), trace.NewSliceSource(recs))
	if total != plain.Eligible {
		t.Errorf("class eligibles %d != total %d", total, plain.Eligible)
	}
	if ca.ALU.Correct+ca.Load.Correct+ca.Jump.Correct != plain.Correct {
		t.Error("class corrects do not sum to the total")
	}
	if ca.Load.Eligible == 0 {
		t.Error("li workload has no loads")
	}
	if ca.Jump.Eligible == 0 {
		t.Error("no link values recorded (li is call-heavy)")
	}
}

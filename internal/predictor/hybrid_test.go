package predictor

import (
	"testing"

	"valuepred/internal/isa"
	"valuepred/internal/trace"
)

// mapHints is a test Hints implementation.
type mapHints map[uint64]Hint

func (m mapHints) HintFor(pc uint64) Hint { return m[pc] }

func TestHybridSteering(t *testing.T) {
	hints := mapHints{
		0x1000: HintLastValue,
		0x1004: HintStride,
		0x1008: HintNone,
	}
	p := NewHybrid(64, hints)

	// Last-value-steered PC: repeating value predicted, stride ignored.
	p.Update(0x1000, 5)
	p.Update(0x1000, 5)
	p.Update(0x1000, 5)
	if pr := p.Lookup(0x1000); !pr.HasValue || pr.Value != 5 || !pr.Confident {
		t.Errorf("last-value steering: %+v", pr)
	}
	if _, stride, ok := p.LastAndStride(0x1000); !ok || stride != 0 {
		t.Error("last-value table must report zero stride")
	}

	// Stride-steered PC.
	for i := uint64(1); i <= 4; i++ {
		p.Update(0x1004, i*10)
	}
	if pr := p.Lookup(0x1004); !pr.HasValue || pr.Value != 50 {
		t.Errorf("stride steering: %+v", pr)
	}

	// No-predict PC never produces anything and never trains.
	p.Update(0x1008, 1)
	p.Update(0x1008, 1)
	if pr := p.Lookup(0x1008); pr.HasValue {
		t.Errorf("no-predict PC produced %+v", pr)
	}
	if _, _, ok := p.LastAndStride(0x1008); ok {
		t.Error("no-predict PC exposed stride state")
	}
	if p.HintFor(0x1008) != HintNone {
		t.Error("HintFor not exposed")
	}
}

func TestHybridDefaultsToStride(t *testing.T) {
	p := NewHybrid(64, nil)
	p.Update(0x2000, 3)
	p.Update(0x2000, 6)
	if pr := p.Lookup(0x2000); !pr.HasValue || pr.Value != 9 {
		t.Errorf("default steering: %+v", pr)
	}
}

// mkTrace builds a synthetic trace with one PC producing a repeating value,
// one producing a stride, and one producing noise.
func mkHintTrace(n int) []trace.Rec {
	var recs []trace.Rec
	noise := uint64(0x123456789)
	for i := 0; i < n; i++ {
		recs = append(recs,
			trace.Rec{Seq: uint64(3 * i), PC: 0x1000, Op: isa.LI, Rd: isa.T0, Val: 7},
			trace.Rec{Seq: uint64(3*i + 1), PC: 0x1004, Op: isa.ADDI, Rd: isa.T1, Val: uint64(10 * i)},
		)
		noise = noise*6364136223846793005 + 1442695040888963407
		recs = append(recs, trace.Rec{Seq: uint64(3*i + 2), PC: 0x1008, Op: isa.XOR, Rd: isa.T2, Val: noise})
	}
	return recs
}

func TestProfileHints(t *testing.T) {
	h := ProfileSource(trace.NewSliceSource(mkHintTrace(200)), 0.5)
	if k, ok := h.Kind(0x1000); !ok || k != HintLastValue {
		t.Errorf("repeating PC hint = %v, %v", k, ok)
	}
	if k, ok := h.Kind(0x1004); !ok || k != HintStride {
		t.Errorf("striding PC hint = %v, %v", k, ok)
	}
	if k, ok := h.Kind(0x1008); !ok || k != HintNone {
		t.Errorf("noisy PC hint = %v, %v", k, ok)
	}
	// Unprofiled PCs default to stride.
	if h.HintFor(0x9999) != HintStride {
		t.Error("unprofiled PC must default to HintStride")
	}
}

func TestEvaluate(t *testing.T) {
	recs := mkHintTrace(100)
	lv := EvaluateSource(NewLastValue(), trace.NewSliceSource(recs))
	if lv.Eligible != 300 {
		t.Fatalf("eligible = %d", lv.Eligible)
	}
	// The repeating PC should be near-perfect for last-value: 99/100 at
	// least; the stride PC contributes 0; noise ~0.
	if lv.HitRate() < 0.30 || lv.HitRate() > 0.40 {
		t.Errorf("last-value hit rate = %.2f", lv.HitRate())
	}
	st := EvaluateSource(NewStride(), trace.NewSliceSource(recs))
	// Stride gets both the repeating and the striding PC.
	if st.HitRate() < 0.60 {
		t.Errorf("stride hit rate = %.2f", st.HitRate())
	}
	cs := EvaluateSource(NewClassifiedStride(), trace.NewSliceSource(recs))
	if cs.ConfidentHitRate() < st.HitRate() {
		t.Errorf("classifier did not filter: confident %.2f < raw %.2f",
			cs.ConfidentHitRate(), st.HitRate())
	}
	if cs.ConfidentAttempted >= cs.Attempted {
		t.Error("classifier endorsed everything")
	}
	// Accuracy's stringer is informative.
	if got := lv.String(); got == "" {
		t.Error("empty accuracy string")
	}
	if lv.Coverage() > lv.HitRate() {
		t.Error("coverage cannot exceed hit rate")
	}
	if cs.ConfidentCoverage() > cs.Coverage() {
		t.Error("confident coverage cannot exceed coverage")
	}
}

func TestEvaluateEmptyTrace(t *testing.T) {
	a := EvaluateSource(NewStride(), trace.NewSliceSource(nil))
	if a.Eligible != 0 || a.HitRate() != 0 || a.Coverage() != 0 || a.ConfidentHitRate() != 0 {
		t.Errorf("empty trace accuracy: %+v", a)
	}
}

package predictor

import (
	"testing"
	"testing/quick"
)

func TestLastValue(t *testing.T) {
	p := NewLastValue()
	if pr := p.Lookup(100); pr.HasValue {
		t.Error("cold table produced a value")
	}
	p.Update(100, 42)
	if pr := p.Lookup(100); !pr.HasValue || pr.Value != 42 || !pr.Confident {
		t.Errorf("lookup = %+v", pr)
	}
	p.Update(100, 43)
	if pr := p.Lookup(100); pr.Value != 43 {
		t.Errorf("last value not updated: %+v", pr)
	}
	// Other PCs are independent.
	if pr := p.Lookup(200); pr.HasValue {
		t.Error("unrelated PC hit")
	}
	if last, stride, ok := p.LastAndStride(100); !ok || last != 43 || stride != 0 {
		t.Errorf("LastAndStride = %d, %d, %v", last, stride, ok)
	}
}

func TestStrideWarmupAndPrediction(t *testing.T) {
	p := NewStride()
	if pr := p.Lookup(8); pr.HasValue {
		t.Error("cold stride table produced a value")
	}
	p.Update(8, 10)
	// After one occurrence the stride is 0: degenerate last-value.
	if pr := p.Lookup(8); !pr.HasValue || pr.Value != 10 {
		t.Errorf("after 1 update: %+v", pr)
	}
	p.Update(8, 13)
	if pr := p.Lookup(8); pr.Value != 16 {
		t.Errorf("stride prediction = %d, want 16", pr.Value)
	}
	p.Update(8, 16)
	if pr := p.Lookup(8); pr.Value != 19 {
		t.Errorf("stride prediction = %d, want 19", pr.Value)
	}
	// Stride change retrains.
	p.Update(8, 100)
	if pr := p.Lookup(8); pr.Value != 184 {
		t.Errorf("after stride change: %d, want 184", pr.Value)
	}
	if last, stride, ok := p.LastAndStride(8); !ok || last != 100 || stride != 84 {
		t.Errorf("LastAndStride = %d, %d, %v", last, stride, ok)
	}
}

// TestStridePerfectOnArithmetic is the core property: a stride predictor is
// exact on any arithmetic sequence after two observations.
func TestStridePerfectOnArithmetic(t *testing.T) {
	f := func(start uint64, delta int64, n uint8) bool {
		p := NewStride()
		v := start
		p.Update(4096, v)
		v += uint64(delta)
		p.Update(4096, v)
		for i := 0; i < int(n%64)+3; i++ {
			v += uint64(delta)
			pr := p.Lookup(4096)
			if !pr.HasValue || pr.Value != v {
				return false
			}
			p.Update(4096, v)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrideNegativeStride(t *testing.T) {
	p := NewStride()
	p.Update(4, 100)
	p.Update(4, 90)
	if pr := p.Lookup(4); pr.Value != 80 {
		t.Errorf("negative stride prediction = %d, want 80", pr.Value)
	}
}

func TestStrideTableEviction(t *testing.T) {
	p := NewStrideTable(4)
	// PCs 0x1000 and 0x1040 collide in a 4-entry table indexed by pc>>2
	// (indices (0x1000>>2)&3 = 0 and (0x1040>>2)&3 = 0).
	p.Update(0x1000, 5)
	p.Update(0x1000, 10)
	if pr := p.Lookup(0x1000); !pr.HasValue || pr.Value != 15 {
		t.Fatalf("warm entry: %+v", pr)
	}
	p.Update(0x1040, 7) // evicts
	if pr := p.Lookup(0x1000); pr.HasValue {
		t.Error("evicted entry still hits")
	}
	if pr := p.Lookup(0x1040); !pr.HasValue || pr.Value != 7 {
		t.Errorf("new occupant: %+v", pr)
	}
	// Non-colliding PC lives in a different set.
	p.Update(0x1004, 1)
	if pr := p.Lookup(0x1040); !pr.HasValue {
		t.Error("non-colliding update evicted the entry")
	}
	if _, _, ok := p.LastAndStride(0x1000); ok {
		t.Error("LastAndStride hit for evicted PC")
	}
}

func TestStrideTableBadSizePanics(t *testing.T) {
	for _, size := range []int{0, -8, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d did not panic", size)
				}
			}()
			NewStrideTable(size)
		}()
	}
}

func TestClassifier(t *testing.T) {
	c := NewClassifier()
	if c.Confident(4) {
		t.Error("cold counter confident")
	}
	c.Record(4, true)
	if c.Confident(4) {
		t.Error("confident after one correct")
	}
	c.Record(4, true)
	if !c.Confident(4) {
		t.Error("not confident after two corrects")
	}
	c.Record(4, true)
	c.Record(4, true) // saturate at 3
	c.Record(4, false)
	if !c.Confident(4) {
		t.Error("single miss dropped saturated counter below threshold")
	}
	c.Record(4, false)
	if c.Confident(4) {
		t.Error("still confident after two misses")
	}
	// Decrement saturates at zero.
	c.Record(4, false)
	c.Record(4, false)
	c.Record(4, true)
	c.Record(4, true)
	if !c.Confident(4) {
		t.Error("counter did not recover")
	}
}

func TestClassifiedStride(t *testing.T) {
	p := NewClassifiedStride()
	if p.Name() != "stride+2bc" {
		t.Errorf("name = %q", p.Name())
	}
	// Feed a stride sequence: the first prediction is unconfident even when
	// the table can produce a value.
	p.Update(16, 10)
	p.Update(16, 20)
	pr := p.Lookup(16)
	if !pr.HasValue || pr.Confident {
		t.Errorf("confidence too eager: %+v", pr)
	}
	// Two correct predictions later the classifier endorses.
	p.Update(16, 30)
	p.Update(16, 40)
	pr = p.Lookup(16)
	if !pr.Confident || pr.Value != 50 {
		t.Errorf("classifier did not warm up: %+v", pr)
	}
	// A burst of erratic values withdraws confidence.
	p.Update(16, 7)
	p.Update(16, 1000)
	p.Update(16, 3)
	if pr := p.Lookup(16); pr.Confident {
		t.Errorf("still confident on noise: %+v", pr)
	}
	if _, _, ok := p.LastAndStride(16); !ok {
		t.Error("classified stride must expose LastAndStride")
	}
}

func TestPredictorNames(t *testing.T) {
	if NewLastValue().Name() != "last-value" || NewStride().Name() != "stride" {
		t.Error("names wrong")
	}
	if NewStrideTable(64).Name() != "stride[64]" {
		t.Errorf("table name = %q", NewStrideTable(64).Name())
	}
	if NewHybrid(64, nil).Name() != "hybrid" {
		t.Error("hybrid name wrong")
	}
}

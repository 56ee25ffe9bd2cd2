package predictor

import (
	"math/rand"
	"testing"

	"valuepred/internal/isa"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// TestRecordOutcomesMatchesLiveStep requires a recorded stream to hold, for
// every record, exactly what the live per-record step returns, and the
// recording pass's accuracy to equal EvaluateSource's. The trace length is
// not a multiple of the 32 records a word packs.
func TestRecordOutcomesMatchesLiveStep(t *testing.T) {
	recs := workload.MustTrace("m88ksim", 1, 5_003)
	for _, mk := range []func() Predictor{
		func() Predictor { return NewClassifiedStride() },
		func() Predictor { return NewStride() },
		func() Predictor { return NewClassifiedFCM(2) },
	} {
		o, acc := RecordOutcomes(mk(), trace.NewSliceSource(recs))
		name := mk().Name()
		if o.Len() != len(recs) {
			t.Fatalf("%s: Len() = %d, want %d", name, o.Len(), len(recs))
		}
		if want := EvaluateSource(mk(), trace.NewSliceSource(recs)); acc != want {
			t.Errorf("%s: recording accuracy %+v, EvaluateSource %+v", name, acc, want)
		}
		live := mk()
		var confident int
		for i := range recs {
			gotConf, gotCorr := o.At(i)
			if !recs[i].WritesValue() {
				if gotConf || gotCorr {
					t.Fatalf("%s: record %d writes no value but has outcome (%v, %v)", name, i, gotConf, gotCorr)
				}
				continue
			}
			wantConf, wantCorr := Step(live, &recs[i])
			if gotConf != wantConf || (wantConf && gotCorr != wantCorr) {
				t.Fatalf("%s: record %d: stream (%v, %v), live step (%v, %v)", name, i, gotConf, gotCorr, wantConf, wantCorr)
			}
			if gotConf {
				confident++
			}
		}
		if uint64(confident) != acc.ConfidentAttempted {
			t.Errorf("%s: %d confident records, accuracy says %d", name, confident, acc.ConfidentAttempted)
		}
	}
}

// TestRecordOutcomesEmpty records an empty trace.
func TestRecordOutcomesEmpty(t *testing.T) {
	o, acc := RecordOutcomes(NewClassifiedStride(), trace.NewSliceSource(nil))
	if o.Len() != 0 || acc != (Accuracy{}) {
		t.Errorf("empty trace: Len %d, accuracy %+v", o.Len(), acc)
	}
}

// refStride is the map-backed stride predictor the dense table replaced,
// kept as the reference the dense one must reproduce.
type refStride map[uint64]*strideEntry

func (r refStride) lookup(pc uint64) Prediction {
	e, ok := r[pc]
	if !ok {
		return Prediction{}
	}
	return Prediction{Value: e.last + uint64(e.stride), HasValue: true, Confident: true}
}

func (r refStride) update(pc, actual uint64) {
	e, ok := r[pc]
	if !ok {
		r[pc] = &strideEntry{last: actual, warm: true}
		return
	}
	e.stride = int64(actual - e.last)
	e.last = actual
}

// TestDenseTablesServeEveryPC drives the dense Stride and Classifier with
// PCs inside the text segment and outside it (below it, unaligned, and
// past the dense bound) and requires the map-backed reference behaviour
// everywhere: every PC is served, and a PC never seen reads as cold.
func TestDenseTablesServeEveryPC(t *testing.T) {
	pcs := []uint64{
		isa.TextBase, isa.PCOf(1), isa.PCOf(63), isa.PCOf(64), isa.PCOf(500),
		8, 100, isa.TextBase + 2, isa.PCOf(maxDense), isa.PCOf(maxDense + 7), ^uint64(0) - 3,
	}
	rng := rand.New(rand.NewSource(1))
	s, ref := NewStride(), refStride{}
	c, refCount := NewClassifier(), map[uint64]uint8{}
	for step := 0; step < 20_000; step++ {
		pc := pcs[rng.Intn(len(pcs))]
		val := uint64(rng.Intn(4)) * 3
		if got, want := s.Lookup(pc), ref.lookup(pc); got != want {
			t.Fatalf("step %d pc %#x: Lookup %+v, reference %+v", step, pc, got, want)
		}
		if got, want := c.Confident(pc), refCount[pc] >= 2; got != want {
			t.Fatalf("step %d pc %#x: Confident %v, reference %v", step, pc, got, want)
		}
		correct := rng.Intn(2) == 0
		c.Record(pc, correct)
		switch n := refCount[pc]; {
		case correct && n < 3:
			refCount[pc] = n + 1
		case !correct && n > 0:
			refCount[pc] = n - 1
		}
		s.Update(pc, val)
		ref.update(pc, val)
	}
	// PCs never seen, in and out of the text segment, read as cold.
	for _, pc := range []uint64{isa.PCOf(2), isa.PCOf(1000), isa.PCOf(maxDense + 1), 12} {
		if pr := s.Lookup(pc); pr.HasValue {
			t.Errorf("cold pc %#x: Lookup %+v", pc, pr)
		}
		if _, _, ok := s.LastAndStride(pc); ok {
			t.Errorf("cold pc %#x: LastAndStride warm", pc)
		}
		if c.counters.get(pc) != 0 {
			t.Errorf("cold pc %#x: counter %d, want 0", pc, c.counters.get(pc))
		}
	}
}

package predictor

import "valuepred/internal/trace"

// Hint classifies a static instruction for the hybrid predictor, standing in
// for the compiler-inserted opcode hints of Section 4.2 (originating in the
// profiling study [9]).
type Hint uint8

// Hint kinds.
const (
	// HintNone marks an instruction that should not be predicted at all;
	// the address router skips it, reducing bank conflicts.
	HintNone Hint = iota
	// HintLastValue routes the instruction to the last-value table.
	HintLastValue
	// HintStride routes the instruction to the (small) stride table.
	HintStride
)

// Hints supplies a hint per static instruction.
type Hints interface {
	// HintFor returns the hint for the instruction at pc.
	HintFor(pc uint64) Hint
}

// allStride routes everything to the stride table; used when a Hybrid is
// built without profile information.
type allStride struct{}

func (allStride) HintFor(uint64) Hint { return HintStride }

// Hybrid is the Section 4.2 hybrid predictor: a large last-value table plus
// a relatively small stride table, with opcode hints steering each static
// instruction to one of the tables (or to neither).
type Hybrid struct {
	last   *LastValue
	stride *StrideTable
	hints  Hints
	class  *Classifier
}

// NewHybrid returns a hybrid predictor with an infinite last-value table, a
// strideEntries-entry direct-mapped stride table and 2-bit classification.
// hints may be nil, in which case every instruction is treated as a stride
// candidate.
func NewHybrid(strideEntries int, hints Hints) *Hybrid {
	if hints == nil {
		hints = allStride{}
	}
	return &Hybrid{
		last:   NewLastValue(),
		stride: NewStrideTable(strideEntries),
		hints:  hints,
		class:  NewClassifier(),
	}
}

// Name implements Predictor.
func (p *Hybrid) Name() string { return "hybrid" }

func (p *Hybrid) tableFor(pc uint64) (Predictor, Hint) {
	h := p.hints.HintFor(pc)
	switch h {
	case HintLastValue:
		return p.last, h
	case HintStride:
		return p.stride, h
	default:
		return nil, h
	}
}

// Lookup implements Predictor.
func (p *Hybrid) Lookup(pc uint64) Prediction {
	t, _ := p.tableFor(pc)
	if t == nil {
		return Prediction{}
	}
	pr := t.Lookup(pc)
	pr.Confident = pr.HasValue && p.class.Confident(pc)
	return pr
}

// Update implements Predictor.
func (p *Hybrid) Update(pc uint64, actual uint64) {
	t, _ := p.tableFor(pc)
	if t == nil {
		return
	}
	pr := t.Lookup(pc)
	if pr.HasValue {
		p.class.Record(pc, pr.Value == actual)
	}
	t.Update(pc, actual)
}

// HintFor exposes the hint steering, used by the address router to drop
// no-predict instructions before bank arbitration.
func (p *Hybrid) HintFor(pc uint64) Hint { return p.hints.HintFor(pc) }

// LastAndStride implements StrideSource: last-value-steered instructions
// report a zero stride (the distributor then replicates the value), and
// stride-steered instructions report the stride-table state.
func (p *Hybrid) LastAndStride(pc uint64) (uint64, int64, bool) {
	t, h := p.tableFor(pc)
	if t == nil {
		return 0, 0, false
	}
	if h == HintLastValue {
		return p.last.LastAndStride(pc)
	}
	return p.stride.LastAndStride(pc)
}

var _ StrideSource = (*Hybrid)(nil)

// ProfileHints derives opcode hints from a profiling run over a trace
// prefix, mirroring the profiling-based classification of [9]: for every
// value-producing static instruction it measures last-value and stride
// accuracy and assigns the hint of the more accurate method, or HintNone
// when neither reaches minAccuracy.
type ProfileHints struct {
	hints map[uint64]Hint
}

// HintFor implements Hints. Unprofiled instructions default to HintStride
// so that cold code is still predictable.
func (p *ProfileHints) HintFor(pc uint64) Hint {
	if h, ok := p.hints[pc]; ok {
		return h
	}
	return HintStride
}

// Kind returns the recorded hint and whether pc was profiled.
func (p *ProfileHints) Kind(pc uint64) (Hint, bool) {
	h, ok := p.hints[pc]
	return h, ok
}

// ProfileSource runs last-value and stride predictors over src and builds
// hints. minAccuracy is the fraction (0..1) below which an instruction is
// marked HintNone. Profiling state is per static PC, so the dynamic trace
// is consumed record-at-a-time and never materialized.
func ProfileSource(src trace.Source, minAccuracy float64) *ProfileHints {
	type counts struct {
		total, lastOK, strideOK uint64
	}
	lv := NewLastValue()
	st := NewStride()
	per := make(map[uint64]*counts)
	trace.ForEach(src, func(r *trace.Rec) {
		if !r.WritesValue() {
			return
		}
		c := per[r.PC]
		if c == nil {
			c = &counts{}
			per[r.PC] = c
		}
		c.total++
		if pr := lv.Lookup(r.PC); pr.HasValue && pr.Value == r.Val {
			c.lastOK++
		}
		if pr := st.Lookup(r.PC); pr.HasValue && pr.Value == r.Val {
			c.strideOK++
		}
		lv.Update(r.PC, r.Val)
		st.Update(r.PC, r.Val)
	})
	hints := make(map[uint64]Hint, len(per))
	for pc, c := range per {
		best := c.strideOK
		hint := HintStride
		if c.lastOK >= c.strideOK {
			best = c.lastOK
			hint = HintLastValue
		}
		if float64(best) < minAccuracy*float64(c.total) {
			hint = HintNone
		}
		hints[pc] = hint
	}
	return &ProfileHints{hints: hints}
}

package predictor

import "valuepred/internal/trace"

// TwoDeltaStride is the two-delta stride predictor from Gabbay &
// Mendelson's technical reports ([7], [8]): the stride used for prediction
// is only replaced when the same new delta has been observed twice in a
// row. This filters the one-off delta glitches that occur when a loop
// restarts, which cost the plain stride predictor two mispredictions per
// discontinuity instead of one.
type TwoDeltaStride struct {
	table map[uint64]*twoDeltaEntry
}

type twoDeltaEntry struct {
	last    uint64
	stride1 int64 // committed stride (used for prediction)
	stride2 int64 // candidate stride (most recent delta)
	warm    bool
}

// NewTwoDeltaStride returns an infinite two-delta stride predictor.
func NewTwoDeltaStride() *TwoDeltaStride {
	return &TwoDeltaStride{table: make(map[uint64]*twoDeltaEntry)}
}

// Name implements Predictor.
func (p *TwoDeltaStride) Name() string { return "stride2d" }

// Lookup implements Predictor.
func (p *TwoDeltaStride) Lookup(pc uint64) Prediction {
	e, ok := p.table[pc]
	if !ok || !e.warm {
		return Prediction{}
	}
	return Prediction{Value: e.last + uint64(e.stride1), HasValue: true, Confident: true}
}

// Update implements Predictor.
func (p *TwoDeltaStride) Update(pc uint64, actual uint64) {
	e, ok := p.table[pc]
	if !ok {
		p.table[pc] = &twoDeltaEntry{last: actual, warm: true}
		return
	}
	delta := int64(actual - e.last)
	if delta == e.stride2 {
		// The candidate repeated: commit it.
		e.stride1 = delta
	}
	e.stride2 = delta
	e.last = actual
}

// LastAndStride implements StrideSource with the committed stride.
func (p *TwoDeltaStride) LastAndStride(pc uint64) (uint64, int64, bool) {
	e, ok := p.table[pc]
	if !ok || !e.warm {
		return 0, 0, false
	}
	return e.last, e.stride1, true
}

// NewClassifiedTwoDelta returns a two-delta stride predictor gated by
// 2-bit confidence counters.
func NewClassifiedTwoDelta() *Classified {
	return &Classified{Inner: NewTwoDeltaStride(), Class: NewClassifier()}
}

// LoadsOnly restricts an inner predictor to load instructions, modelling
// the original load-value prediction of Lipasti, Wilkerson & Shen (the
// paper's reference [13]). The machine models pass every value-producing
// instruction through the predictor; this wrapper ignores the non-loads.
type LoadsOnly struct {
	Inner Predictor
	// IsLoad reports whether the instruction at pc is a load; the wrapper
	// learns this from the trace itself: Update marks PCs.
	loads map[uint64]bool
}

// NewLoadsOnly wraps inner so that only PCs registered as loads predict.
func NewLoadsOnly(inner Predictor) *LoadsOnly {
	return &LoadsOnly{Inner: inner, loads: make(map[uint64]bool)}
}

// Name implements Predictor.
func (p *LoadsOnly) Name() string { return p.Inner.Name() + "/loads" }

// MarkLoad registers pc as a load instruction.
func (p *LoadsOnly) MarkLoad(pc uint64) { p.loads[pc] = true }

// Lookup implements Predictor: non-loads never predict.
func (p *LoadsOnly) Lookup(pc uint64) Prediction {
	if !p.loads[pc] {
		return Prediction{}
	}
	return p.Inner.Lookup(pc)
}

// Update implements Predictor: only loads train the inner table.
func (p *LoadsOnly) Update(pc uint64, actual uint64) {
	if p.loads[pc] {
		p.Inner.Update(pc, actual)
	}
}

// LastAndStride implements StrideSource for registered loads.
func (p *LoadsOnly) LastAndStride(pc uint64) (uint64, int64, bool) {
	if !p.loads[pc] {
		return 0, 0, false
	}
	if s, ok := p.Inner.(StrideSource); ok {
		return s.LastAndStride(pc)
	}
	return 0, 0, false
}

var (
	_ StrideSource = (*TwoDeltaStride)(nil)
	_ StrideSource = (*LoadsOnly)(nil)
)

// NewLoadsOnlyFromSource wraps inner with every load PC of src registered;
// only the static load PCs are retained.
func NewLoadsOnlyFromSource(inner Predictor, src trace.Source) *LoadsOnly {
	p := NewLoadsOnly(inner)
	trace.ForEach(src, func(r *trace.Rec) {
		if r.Op.IsLoad() {
			p.MarkLoad(r.PC)
		}
	})
	return p
}

package predictor

// Classifier is the paper's classification unit: a set of per-instruction
// 2-bit saturating counters that accumulate confidence in the predictor's
// output for that instruction. A prediction is endorsed only when its
// counter is in the upper half, at 2 or 3.
type Classifier struct {
	counters pcTable[uint8]
}

// The counters saturate at classMax and endorse from classThreshold up.
const (
	classMax       = 3
	classThreshold = 2
)

// NewClassifier returns the paper's classifier, every counter at 0.
func NewClassifier() *Classifier { return &Classifier{} }

// Confident reports whether the counter for pc endorses speculation.
func (c *Classifier) Confident(pc uint64) bool {
	return c.counters.get(pc) >= classThreshold
}

// Record trains the counter for pc with the correctness of the last
// prediction: saturating increment when correct, saturating decrement when
// wrong.
func (c *Classifier) Record(pc uint64, correct bool) {
	n := c.counters.at(pc)
	if correct {
		if *n < classMax {
			*n++
		}
		return
	}
	if *n > 0 {
		*n--
	}
}

// Classified combines an inner value predictor with a classification unit:
// the paper's "stride predictor with a set of saturated counters". The
// inner table is always consulted and trained; the classifier gates the
// Confident bit.
type Classified struct {
	Inner Predictor
	Class *Classifier
}

// NewClassifiedStride returns the paper's Section 3/5 configuration: an
// infinite stride predictor gated by 2-bit saturating counters.
func NewClassifiedStride() *Classified {
	return &Classified{Inner: NewStride(), Class: NewClassifier()}
}

// Name implements Predictor.
func (p *Classified) Name() string { return p.Inner.Name() + "+2bc" }

// Lookup implements Predictor.
func (p *Classified) Lookup(pc uint64) Prediction {
	pr := p.Inner.Lookup(pc)
	pr.Confident = pr.HasValue && p.Class.Confident(pc)
	return pr
}

// Update implements Predictor: it trains the classifier with whether the
// inner predictor would have been correct, then updates the inner table.
func (p *Classified) Update(pc uint64, actual uint64) {
	pr := p.Inner.Lookup(pc)
	if pr.HasValue {
		p.Class.Record(pc, pr.Value == actual)
	}
	p.Inner.Update(pc, actual)
}

// LastAndStride implements StrideSource when the inner predictor does.
func (p *Classified) LastAndStride(pc uint64) (uint64, int64, bool) {
	if s, ok := p.Inner.(StrideSource); ok {
		return s.LastAndStride(pc)
	}
	return 0, 0, false
}

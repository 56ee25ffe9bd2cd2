package predictor

// FCM is a finite-context-method (two-level, context-based) value
// predictor in the style of Sazeides & Smith, "The Predictability of Data
// Values" (the paper's reference [22]): the first level keeps the last
// `order` values produced by each static instruction; the second level maps
// a hash of that value history to the next value. FCM captures repeating
// non-arithmetic sequences (e.g. pointers walked in a cycle) that last-value
// and stride predictors cannot.
type FCM struct {
	order int
	l1    map[uint64]*fcmHistory
	l2    map[uint64]uint64
}

type fcmHistory struct {
	vals []uint64 // ring of the last `order` values, oldest first
}

// NewFCM returns an infinite FCM predictor of the given order (1..8).
func NewFCM(order int) *FCM {
	if order < 1 || order > 8 {
		panic("predictor: FCM order out of range")
	}
	return &FCM{
		order: order,
		l1:    make(map[uint64]*fcmHistory),
		l2:    make(map[uint64]uint64),
	}
}

// Name implements Predictor.
func (p *FCM) Name() string { return "fcm" }

// hash folds the PC and the value history into a second-level index. The
// PC participates so distinct instructions with equal histories do not
// alias (an infinite-table idealisation, as in Section 3's methodology).
func (p *FCM) hash(pc uint64, h *fcmHistory) uint64 {
	x := pc * 0x9E3779B97F4A7C15
	for _, v := range h.vals {
		x ^= v
		x *= 0x100000001B3
	}
	return x
}

// Lookup implements Predictor: a prediction exists once the instruction
// has a full history and that context has been seen before.
func (p *FCM) Lookup(pc uint64) Prediction {
	h, ok := p.l1[pc]
	if !ok || len(h.vals) < p.order {
		return Prediction{}
	}
	v, ok := p.l2[p.hash(pc, h)]
	if !ok {
		return Prediction{}
	}
	return Prediction{Value: v, HasValue: true, Confident: true}
}

// Update implements Predictor: it trains the context table with the actual
// value and shifts the history.
func (p *FCM) Update(pc uint64, actual uint64) {
	h, ok := p.l1[pc]
	if !ok {
		h = &fcmHistory{vals: make([]uint64, 0, p.order)}
		p.l1[pc] = h
	}
	if len(h.vals) == p.order {
		p.l2[p.hash(pc, h)] = actual
		copy(h.vals, h.vals[1:])
		h.vals[len(h.vals)-1] = actual
		return
	}
	h.vals = append(h.vals, actual)
}

// NewClassifiedFCM returns an order-`order` FCM gated by 2-bit saturating
// confidence counters, matching the classification scheme used for the
// stride predictor.
func NewClassifiedFCM(order int) *Classified {
	return &Classified{Inner: NewFCM(order), Class: NewClassifier()}
}

var _ Predictor = (*FCM)(nil)

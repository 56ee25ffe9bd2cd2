package predictor

import "valuepred/internal/trace"

// Outcomes is a recorded outcome stream: for each record of one trace, in
// trace order, whether a predictor's lookup was confident and, if so,
// whether its value was correct. Under the package's simulation protocol
// that outcome depends only on the trace and the predictor, never on the
// machine consuming it, so one pass records it and any number of machine
// runs over the same trace replay it (DESIGN.md §7). It packs two bits
// per record, 32 records to a word, and is read-only once recorded, so
// concurrent runs may share it.
type Outcomes struct {
	words []uint64 // record i: bit 2(i%32) confident, bit 2(i%32)+1 correct, of words[i/32]
	n     int      // records
}

// NewOutcomes returns an empty outcome stream sized for n records, for
// Record to fill.
func NewOutcomes(n int) *Outcomes {
	return &Outcomes{words: make([]uint64, 0, (max(n, 0)+31)/32)}
}

// Record runs p over src with the lookup-then-update protocol, appending
// every record's outcome to o, and returns the pass's accuracy, which
// equals EvaluateSource's. o grows as Record reads, so a machine may
// replay the records already recorded while Record is still running, once
// a handoff orders its reads after Record's writes.
func (o *Outcomes) Record(p Predictor, src trace.Source) Accuracy {
	return evaluate(p, src, o)
}

// RecordOutcomes records p's outcomes over src into a new stream, sized
// up front when src reports its length, and returns it together with the
// pass's accuracy.
func RecordOutcomes(p Predictor, src trace.Source) (*Outcomes, Accuracy) {
	n := 0
	if l, ok := src.(interface{ Len() int }); ok {
		n = l.Len()
	}
	o := NewOutcomes(n)
	return o, o.Record(p, src)
}

// Len returns the number of records recorded.
func (o *Outcomes) Len() int { return o.n }

// At returns record i's outcome: whether the prediction was confident and,
// if so, whether it was correct. i must be in [0, Len()).
func (o *Outcomes) At(i int) (confident, correct bool) {
	w := o.words[i>>5] >> (uint(i&31) * 2)
	return w&1 != 0, w&2 != 0
}

// grow appends a record without a confident prediction and returns its
// index. On a nil o it does nothing.
func (o *Outcomes) grow() int {
	if o == nil {
		return 0
	}
	i := o.n
	if i&31 == 0 {
		o.words = append(o.words, 0)
	}
	o.n++
	return i
}

// set marks record i as confidently predicted, correctly or not. On a nil
// o it does nothing.
func (o *Outcomes) set(i int, correct bool) {
	if o == nil {
		return
	}
	bits := uint64(1)
	if correct {
		bits |= 2
	}
	o.words[i>>5] |= bits << (uint(i&31) * 2)
}

// Step is the simulation protocol's per-record step for record i of a
// trace, r, which writes a value. With a recorded stream o it reads r's
// outcome from o; otherwise it looks r up in p and then updates p with r's
// value. It returns whether the prediction was confident and, if so,
// whether it was correct.
func Step(p Predictor, o *Outcomes, i int, r *trace.Rec) (confident, correct bool) {
	if o != nil {
		return o.At(i)
	}
	pr := p.Lookup(r.PC)
	p.Update(r.PC, r.Val)
	return pr.Confident, pr.Value == r.Val
}

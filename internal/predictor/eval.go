package predictor

import (
	"fmt"

	"valuepred/internal/trace"
)

// Accuracy summarises a predictor evaluation over a trace.
type Accuracy struct {
	// Eligible counts value-producing dynamic instructions.
	Eligible uint64
	// Attempted counts lookups that produced a value.
	Attempted uint64
	// Correct counts attempted predictions matching the committed value.
	Correct uint64
	// ConfidentAttempted and ConfidentCorrect restrict the two counts above
	// to predictions the classifier endorsed.
	ConfidentAttempted uint64
	ConfidentCorrect   uint64
}

// HitRate returns Correct/Attempted (0 when nothing was attempted).
func (a Accuracy) HitRate() float64 { return ratio(a.Correct, a.Attempted) }

// Coverage returns Correct/Eligible: the fraction of all value-producing
// instructions predicted correctly.
func (a Accuracy) Coverage() float64 { return ratio(a.Correct, a.Eligible) }

// ConfidentHitRate returns ConfidentCorrect/ConfidentAttempted.
func (a Accuracy) ConfidentHitRate() float64 {
	return ratio(a.ConfidentCorrect, a.ConfidentAttempted)
}

// ConfidentCoverage returns ConfidentCorrect/Eligible.
func (a Accuracy) ConfidentCoverage() float64 { return ratio(a.ConfidentCorrect, a.Eligible) }

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// String renders the accuracy as a short report.
func (a Accuracy) String() string {
	return fmt.Sprintf("eligible=%d attempted=%d hit=%.1f%% coverage=%.1f%% confident-hit=%.1f%%",
		a.Eligible, a.Attempted, 100*a.HitRate(), 100*a.Coverage(), 100*a.ConfidentHitRate())
}

// add counts one value-producing record whose lookup returned pr and
// whose committed value is actual, and reports whether pr was correct.
func (a *Accuracy) add(pr Prediction, actual uint64) (correct bool) {
	correct = pr.Value == actual
	a.Eligible++
	if pr.HasValue {
		a.Attempted++
		if correct {
			a.Correct++
		}
		if pr.Confident {
			a.ConfidentAttempted++
			if correct {
				a.ConfidentCorrect++
			}
		}
	}
	return correct
}

// EvaluateSource runs p over every value-producing record of src using the
// lookup-then-update protocol and returns accuracy statistics. Records are
// consumed one at a time and never retained, so the trace need not be
// materialized.
func EvaluateSource(p Predictor, src trace.Source) Accuracy {
	return evaluate(p, src, nil)
}

// evaluate runs p over src using the lookup-then-update protocol and
// returns its accuracy. With o non-nil it also appends every record's
// outcome to o.
func evaluate(p Predictor, src trace.Source, o *Outcomes) Accuracy {
	var a Accuracy
	trace.ForEach(src, func(r *trace.Rec) {
		i := o.grow()
		if !r.WritesValue() {
			return
		}
		pr := p.Lookup(r.PC)
		if correct := a.add(pr, r.Val); pr.Confident {
			o.set(i, correct)
		}
		p.Update(r.PC, r.Val)
	})
	return a
}

// ClassAccuracy breaks predictor accuracy down by instruction class,
// distinguishing loads (the only targets of the original load-value
// prediction [13]) from ALU instructions and jumps (link values).
type ClassAccuracy struct {
	ALU  Accuracy
	Load Accuracy
	Jump Accuracy
}

// EvaluateByClassSource runs p over src like EvaluateSource but
// accumulates accuracy separately per instruction class.
func EvaluateByClassSource(p Predictor, src trace.Source) ClassAccuracy {
	var ca ClassAccuracy
	trace.ForEach(src, func(r *trace.Rec) {
		if !r.WritesValue() {
			return
		}
		a := &ca.ALU
		switch {
		case r.Op.IsLoad():
			a = &ca.Load
		case r.Op.IsJump():
			a = &ca.Jump
		}
		a.add(p.Lookup(r.PC), r.Val)
		p.Update(r.PC, r.Val)
	})
	return ca
}

// Package dfg implements the paper's dataflow-graph analysis (Section 3.3):
// the Dynamic Instruction Distance (DID) of every true-data dependence, the
// per-benchmark average DID (Figure 3.3), the DID distribution histogram
// (Figure 3.4), and the joint distribution of dependences by value
// predictability and DID (Figure 3.5).
//
// The DFG is built over the entire dynamic trace, ignoring basic-block
// boundaries, exactly as the paper describes: node numbers are the dynamic
// appearance order and the DID of an arc producer→consumer is the
// difference of their sequence numbers.
package dfg

import (
	"fmt"

	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// Bucket indexes the DID histogram ranges used by Figure 3.4 / 3.5.
type Bucket int

// Histogram buckets.
const (
	BucketDID1 Bucket = iota // DID == 1
	BucketDID2               // DID == 2
	BucketDID3               // DID == 3
	BucketDID4to7
	BucketDID8to15
	BucketDID16to31
	BucketDID32up
	NumBuckets
)

// String returns the bucket's range label.
func (b Bucket) String() string {
	switch b {
	case BucketDID1:
		return "1"
	case BucketDID2:
		return "2"
	case BucketDID3:
		return "3"
	case BucketDID4to7:
		return "4-7"
	case BucketDID8to15:
		return "8-15"
	case BucketDID16to31:
		return "16-31"
	case BucketDID32up:
		return ">=32"
	default:
		return fmt.Sprintf("bucket(%d)", int(b))
	}
}

// BucketOf maps a DID to its histogram bucket. DIDs are always >= 1.
func BucketOf(did uint64) Bucket {
	switch {
	case did <= 1:
		return BucketDID1
	case did == 2:
		return BucketDID2
	case did == 3:
		return BucketDID3
	case did < 8:
		return BucketDID4to7
	case did < 16:
		return BucketDID8to15
	case did < 32:
		return BucketDID16to31
	default:
		return BucketDID32up
	}
}

// Config controls the analysis.
type Config struct {
	// IncludeMemoryDeps additionally treats a load as a consumer of the
	// most recent store to the same address. The paper's register dataflow
	// analysis is the default (false).
	IncludeMemoryDeps bool
}

// Analysis is the result of scanning a trace.
type Analysis struct {
	// Insts is the number of dynamic instructions scanned.
	Insts uint64
	// Arcs is the number of true-data dependence arcs found.
	Arcs uint64
	// SumDID accumulates DIDs for the average.
	SumDID uint64
	// Hist is the DID histogram over all arcs (Figure 3.4).
	Hist [NumBuckets]uint64
	// Unpredictable counts arcs whose producer instance was not correctly
	// predicted by the infinite stride predictor (Figure 3.5's
	// "uncorrectly predicted" category).
	Unpredictable uint64
	// PredHist is the DID histogram restricted to predictable arcs
	// (Figure 3.5).
	PredHist [NumBuckets]uint64
}

// AvgDID returns the average dynamic instruction distance (Figure 3.3).
func (a *Analysis) AvgDID() float64 {
	if a.Arcs == 0 {
		return 0
	}
	return float64(a.SumDID) / float64(a.Arcs)
}

// PctOfArcs returns n as a percentage of the arcs, computed as
// 100*n/Arcs, or 0 for a trace without arcs (too short to have any), so a
// figure cell is never NaN.
func (a *Analysis) PctOfArcs(n uint64) float64 {
	if a.Arcs == 0 {
		return 0
	}
	return 100 * float64(n) / float64(a.Arcs)
}

// FracDIDAtLeast4 returns the fraction of arcs with DID >= 4 (the paper
// reports ~60% on average).
func (a *Analysis) FracDIDAtLeast4() float64 {
	if a.Arcs == 0 {
		return 0
	}
	long := a.Hist[BucketDID4to7] + a.Hist[BucketDID8to15] +
		a.Hist[BucketDID16to31] + a.Hist[BucketDID32up]
	return float64(long) / float64(a.Arcs)
}

// Predictable returns the number of arcs whose producer instance was
// correctly stride-predicted.
func (a *Analysis) Predictable() uint64 { return a.Arcs - a.Unpredictable }

// FracPredictableShort returns the fraction of arcs that are both
// predictable and span fewer than 4 instructions (paper: ~23% average).
func (a *Analysis) FracPredictableShort() float64 {
	if a.Arcs == 0 {
		return 0
	}
	short := a.PredHist[BucketDID1] + a.PredHist[BucketDID2] + a.PredHist[BucketDID3]
	return float64(short) / float64(a.Arcs)
}

// FracPredictableLong returns the fraction of arcs that are predictable
// with DID >= 4 (paper: ~40% m88ksim, >55% vortex, 20-25% others).
func (a *Analysis) FracPredictableLong() float64 {
	if a.Arcs == 0 {
		return 0
	}
	long := a.PredHist[BucketDID4to7] + a.PredHist[BucketDID8to15] +
		a.PredHist[BucketDID16to31] + a.PredHist[BucketDID32up]
	return float64(long) / float64(a.Arcs)
}

// AnalyzeSource scans src and computes the DFG statistics. Producer
// predictability is evaluated with an infinite stride predictor per the
// paper's Figure 3.5 methodology. The analysis is inherently single-pass —
// producer state is 32 registers plus (optionally) a last-store-per-address
// map — so it never needs the trace materialized; records are consumed one
// at a time and not retained.
func AnalyzeSource(src trace.Source, cfg Config) *Analysis {
	a := &Analysis{}
	type producer struct {
		seq     uint64
		correct bool
		valid   bool
	}
	var regProducer [32]producer
	memProducer := make(map[uint64]producer)
	stride := predictor.NewStride()

	addArc := func(p producer, consumerSeq uint64) {
		did := consumerSeq - p.seq
		a.Arcs++
		a.SumDID += did
		b := BucketOf(did)
		a.Hist[b]++
		if p.correct {
			a.PredHist[b]++
		} else {
			a.Unpredictable++
		}
	}

	trace.ForEach(src, func(r *trace.Rec) {
		a.Insts++
		// Consume register operands.
		if r.Op.ReadsRs1() && r.Rs1 != 0 {
			if p := regProducer[r.Rs1]; p.valid {
				addArc(p, r.Seq)
			}
		}
		if r.Op.ReadsRs2() && r.Rs2 != 0 && !(r.Rs2 == r.Rs1 && r.Op.ReadsRs1()) {
			if p := regProducer[r.Rs2]; p.valid {
				addArc(p, r.Seq)
			}
		}
		if cfg.IncludeMemoryDeps && r.Op.IsLoad() {
			if p, ok := memProducer[r.Addr]; ok {
				addArc(p, r.Seq)
			}
		}
		// Produce.
		if r.WritesValue() {
			pr := stride.Lookup(r.PC)
			correct := pr.HasValue && pr.Value == r.Val
			stride.Update(r.PC, r.Val)
			regProducer[r.Rd] = producer{seq: r.Seq, correct: correct, valid: true}
		}
		if cfg.IncludeMemoryDeps && r.Op.IsStore() {
			// The stored value's predictability is tracked with the
			// store's own PC-indexed stride history: a store→load arc is
			// eliminable when the flowing value is predictable.
			pr := stride.Lookup(r.PC)
			correct := pr.HasValue && pr.Value == r.Val
			stride.Update(r.PC, r.Val)
			memProducer[r.Addr] = producer{seq: r.Seq, correct: correct, valid: true}
		}
	})
	return a
}

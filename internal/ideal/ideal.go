// Package ideal implements the paper's Section 3 machine model: an ideal
// execution environment limited only by true-data dependencies (through
// registers, and from a store to a later load of its address), the
// instruction window size and an artificial fetch/issue width. Control
// dependencies, name dependencies and structural conflicts do not exist;
// every instruction has unit latency; the machine has a four-stage pipeline
// (Fetch, Decode/Issue, Execute, Commit) so the earliest execute cycle of
// an instruction is its fetch cycle plus two (Table 3.2).
//
// That is the Section 5 machine of internal/pipeline behind perfect fetch,
// so Run is pipeline.RunPerfectFetch: the two machines share one schedule
// recurrence and differ only in how records reach it (DESIGN.md §7).
//
// Value prediction follows the paper's protocol: the predictor is looked up
// at fetch and updated speculatively, so each record's outcome depends on
// the trace alone and Run can replay one recorded by
// predictor.RecordOutcomes; a consumer whose producer's output was
// correctly predicted (and endorsed by the classifier) may execute before
// that producer does, and the consumer of a wrong value reschedules at
// once, as if nothing had been predicted. A correct prediction is only
// *useful* when the consumer would otherwise have waited — the paper's
// central measurement.
package ideal

import (
	"valuepred/internal/pipeline"
	"valuepred/internal/trace"
)

// Config parameterises the ideal machine. It is the pipeline's Config:
// Width is the fetch/issue width, and the fields that describe fetch
// (BranchPenalty) have nothing to act on behind perfect fetch.
type Config = pipeline.Config

// DefaultConfig returns the paper's Section 3 configuration at the given
// fetch width, without a predictor: the Section 5 machine's 40-entry
// window, unit latencies and store→load dependences.
func DefaultConfig(width int) Config {
	cfg := pipeline.DefaultConfig()
	cfg.Width = width
	return cfg
}

// Result reports the simulation outcome: the counts of pipeline.Result
// (documented there) that mean something behind perfect fetch.
type Result struct {
	Insts     uint64
	Cycles    uint64
	Attempted uint64
	Correct   uint64
	Used      uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Useless returns the number of correct-but-unneeded predictions.
func (r Result) Useless() uint64 { return r.Correct - r.Used }

// Speedup returns the relative IPC gain of r over base in percent.
func Speedup(base, r Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (r.IPC()/base.IPC() - 1) * 100
}

// Run simulates the trace under cfg behind perfect fetch
// (pipeline.RunPerfectFetch). Under DefaultConfig every cycle fetches the
// next min(width, free window slots) records; each executes at the latest
// of fetch+2, producer+1 for each operand whose in-flight producer was not
// predicted correctly and, for a load, the latest store to its address
// plus 1, and leaves the window as it executes.
func Run(src trace.Source, cfg Config) (Result, error) {
	res, err := pipeline.RunPerfectFetch(src, cfg)
	if err != nil {
		return Result{}, err
	}
	return Result{Insts: res.Insts, Cycles: res.Cycles,
		Attempted: res.Attempted, Correct: res.Correct, Used: res.Used}, nil
}

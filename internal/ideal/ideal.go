// Package ideal implements the paper's Section 3 machine model: an ideal
// execution environment limited only by true-data dependencies (through
// registers, and from a store to a later load of its address), the
// instruction window size and an artificial fetch/issue width. Control
// dependencies, name dependencies and structural conflicts do not exist;
// every instruction has unit latency; the machine has a four-stage pipeline
// (Fetch, Decode/Issue, Execute, Commit) so the earliest execute cycle of
// an instruction is its fetch cycle plus two (Table 3.2).
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
	"fmt"

	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// Config parameterises the ideal machine.
type Config struct {
	// FetchWidth is the fetch/issue limit in instructions per cycle
	// (the paper sweeps 4, 8, 16, 32, 40).
	FetchWidth int
	// WindowSize is the instruction window (paper: 40). An instruction
	// occupies a window slot from fetch until it executes.
	WindowSize int
	// Predictor enables value prediction when non-nil.
	Predictor predictor.Predictor
	// Outcomes, when non-nil, enables value prediction from a recorded
	// outcome stream of the trace Run is given, instead of a live
	// Predictor: the two are exclusive, and Run rejects a stream whose
	// length differs from the trace's.
	Outcomes *predictor.Outcomes
	// OracleVP models the perfect value predictor of the Table 3.2
	// walk-through: every value-producing instruction is predicted
	// correctly. It overrides Predictor and Outcomes.
	OracleVP bool
	// Observer, when non-nil, is called once per instruction, in fetch
	// order, with its sequence number, fetch cycle and execute cycle
	// (commit follows one cycle after execute).
	Observer func(seq, fetchCycle, execCycle uint64)
	// Obs, when non-nil, receives per-cycle stage occupancy and
	// value-prediction outcomes. Strictly write-only: results are
	// bit-identical with Obs set or nil, and a nil Obs costs the loop only
	// a nil-check.
	Obs *obs.Sink
}

// DefaultConfig returns the paper's Section 3 configuration at the given
// fetch width, without a predictor.
func DefaultConfig(width int) Config {
	return Config{FetchWidth: width, WindowSize: 40}
}

// Result reports the simulation outcome.
type Result struct {
	// Insts and Cycles give the committed instruction count and the total
	// cycles; IPC is their ratio.
	Insts  uint64
	Cycles uint64
	// Attempted counts confident predictions made at fetch; Correct those
	// matching the committed value. Used counts correct predictions that
	// decoupled at least one consumer from an unexecuted producer; Useless
	// is Correct - Used (correct but the consumers' operands were ready
	// anyway — the phenomenon of Section 3). Wrong = Attempted - Correct.
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

// Wrong returns the number of consumed-or-not mispredictions.
func (r Result) Wrong() uint64 { return r.Attempted - r.Correct }

// Speedup returns the relative IPC gain of r over base in percent.
func Speedup(base, r Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (r.IPC()/base.IPC() - 1) * 100
}

// producer is the latest writer of a register, as its readers see it.
type producer struct {
	exec   uint64 // execute cycle
	right  bool   // its value was predicted correctly
	useful uint64 // earliest execute cycle of a consumer it decoupled; 0 if none
}

// readyAt returns the earliest cycle, as far as p is concerned, at which a
// consumer fetched in cycle fetch may execute. A producer that executed by
// the consumer's fetch constrains it no more than the pipeline depth does,
// and a correctly predicted one does not constrain it at all.
func (p *producer) readyAt(fetch uint64) uint64 {
	if p.exec <= fetch || p.right {
		return 0
	}
	return p.exec + 1
}

// slot holds one cycle's counts: the instructions that execute in it and
// the correct predictions that first prove useful in it.
type slot struct{ exec, useful int }

// clock walks the run's cycles in order. It knows the current fetch cycle,
// what was fetched in it and what is still unexecuted at its end, and
// keeps a ring of per-cycle counts for the cycles ahead; with Obs set, it
// reports each cycle to Obs as it closes.
type clock struct {
	now      uint64 // current fetch cycle
	fetched  int    // instructions fetched in cycle now
	inflight int    // instructions fetched by cycle now, executing after it
	ring     []slot // slot k&(len-1) belongs to cycle k, for now <= k < now+len
	o        *obs.Sink
}

// at returns cycle k's slot (k >= now), growing the ring to reach it.
func (c *clock) at(k uint64) *slot {
	for k-c.now >= uint64(len(c.ring)) {
		ring := make([]slot, max(2*len(c.ring), 64))
		for i := c.now; i < c.now+uint64(len(c.ring)); i++ {
			ring[i&uint64(len(ring)-1)] = c.ring[i&uint64(len(c.ring)-1)]
		}
		c.ring = ring
	}
	return &c.ring[k&uint64(len(c.ring)-1)]
}

// tick closes cycle now and opens the next one, retiring from the window
// the instructions that execute in it. Closing reports the cycle to Obs:
// the predictions that first proved useful in it, then its stage counts.
// The ideal machine commits one cycle after execute; the commit count is
// reported as the execute count for display purposes.
func (c *clock) tick() {
	s := c.at(c.now)
	if c.o != nil {
		for range s.useful {
			c.o.VPUseful()
		}
		c.o.Cycle(c.now, c.fetched, s.exec, s.exec, c.inflight)
	}
	*s = slot{}
	c.now++
	c.fetched = 0
	c.inflight -= c.at(c.now).exec
}

// Run simulates the trace under cfg and returns the result. Every latency
// is one cycle, functional units are unlimited and a window slot frees when
// its instruction executes, so each instruction's cycles follow from
// values known when it is fetched, and Run computes them in one pass in
// fetch order (DESIGN.md §7):
//
//   - it is fetched in the first cycle, no earlier than its predecessor's,
//     that still has fetch bandwidth and a free window slot;
//   - it executes at the latest of fetch+2, producer+1 for each operand
//     whose in-flight producer was not predicted correctly, and, for a
//     load, the execute cycle of the latest store to its address plus 1;
//   - a correctly predicted in-flight producer adds no constraint, and
//     counts once in Used if some consumer executes no later than it does.
func Run(src trace.Source, cfg Config) (Result, error) {
	if cfg.FetchWidth <= 0 || cfg.WindowSize <= 0 {
		return Result{}, fmt.Errorf("ideal: invalid config %+v", cfg)
	}
	if cfg.Predictor != nil && cfg.Outcomes != nil {
		return Result{}, fmt.Errorf("ideal: set either Predictor or Outcomes, not both")
	}
	var res Result
	s := getScratch() // the store map and the ring's array, reused across runs
	defer putScratch(s)
	var regs [32]producer
	clk := clock{now: 1, ring: s.ring, o: cfg.Obs} // Obs is nil when disabled

	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		for clk.fetched == cfg.FetchWidth || clk.inflight >= cfg.WindowSize {
			clk.tick()
		}
		fetch := clk.now
		clk.fetched++

		// Value prediction: looked up and updated at fetch, or replayed.
		var confident, right bool
		if cfg.OracleVP && rec.WritesValue() {
			confident, right = true, true
		} else if (cfg.Predictor != nil || cfg.Outcomes != nil) && rec.WritesValue() {
			if cfg.Outcomes != nil && res.Insts >= uint64(cfg.Outcomes.Len()) {
				return Result{}, errOutcomesLen(cfg.Outcomes)
			}
			if c, correct := predictor.Step(cfg.Predictor, cfg.Outcomes, int(res.Insts), &rec); c {
				confident, right = true, correct
			}
		}
		if confident {
			res.Attempted++
			if right {
				res.Correct++
			}
			clk.o.VPAttempt(right)
		}

		// Operand registers. x0 stands in for an operand not read: regs[0]
		// is never written, so it reads as a producer long executed.
		var rs [2]isa.Reg
		if rec.Op.ReadsRs1() {
			rs[0] = rec.Rs1
		}
		if rec.Op.ReadsRs2() {
			rs[1] = rec.Rs2
		}
		exec := fetch + 2
		for _, r := range rs {
			exec = max(exec, regs[r].readyAt(fetch))
		}
		if rec.Op.IsLoad() {
			// Stores are never predicted; an absent address reads as 0.
			exec = max(exec, s.stores[rec.Addr]+1)
		}

		// A correctly predicted producer that executes no earlier than
		// this consumer decoupled it: it counts once in Used, and in the
		// per-cycle counts at its earliest such consumer's cycle.
		for _, r := range rs {
			p := &regs[r]
			if !p.right || exec > p.exec || (p.useful != 0 && p.useful <= exec) {
				continue
			}
			if p.useful == 0 {
				res.Used++
			} else {
				clk.at(p.useful).useful--
			}
			clk.at(exec).useful++
			p.useful = exec
		}

		if rec.WritesValue() {
			regs[rec.Rd] = producer{exec: exec, right: right}
		}
		if rec.Op.IsStore() {
			s.stores[rec.Addr] = exec
		}
		clk.at(exec).exec++
		clk.inflight++
		res.Insts++
		if cfg.Observer != nil {
			cfg.Observer(rec.Seq, fetch, exec)
		}
	}
	if cfg.Outcomes != nil && !cfg.OracleVP && res.Insts != uint64(cfg.Outcomes.Len()) {
		return Result{}, errOutcomesLen(cfg.Outcomes)
	}
	// The machine runs until its last instruction executes (an empty trace
	// takes the one cycle that finds it empty); a last tick closes it.
	for clk.inflight > 0 {
		clk.tick()
	}
	res.Cycles = clk.now
	clk.tick()
	clk.o.RunDone(res.Insts, res.Cycles, res.Correct, res.Used)
	// Hand the (possibly grown) ring back so the next run reuses it.
	s.ring = clk.ring
	return res, nil
}

// errOutcomesLen reports a recorded outcome stream that does not match the
// trace Run was given.
func errOutcomesLen(o *predictor.Outcomes) error {
	return fmt.Errorf("ideal: outcome stream of %d records does not match the trace", o.Len())
}

// Package pipeline implements the paper's Section 5 realistic machine: a
// 40-wide decode/issue processor with a 40-entry instruction window, 40
// execution units (which that window never oversubscribes, so no unit
// limit is modelled), register renaming (no name dependencies), branch
// prediction with a 3-cycle misprediction penalty, and value prediction
// with a 1-cycle misprediction penalty where only the dependent
// instructions are invalidated and rescheduled.
//
// The machine is trace-driven: a fetch engine (internal/fetch) delivers
// correct-path fetch groups and flags mispredicted control transfers, whose
// redirect bubble stalls fetch until the branch resolves plus the penalty.
// Value predictions are obtained directly from a predictor table, from an
// outcome stream recorded by predictor.RecordOutcomes (the direct mode's
// outcomes depend on the trace alone), or through the banked prediction
// network of internal/core, which may deny predictions on bank conflicts
// and expands merged duplicate-PC requests.
//
// Run drives the machine from a fetch engine. RunPerfectFetch drives the
// same recurrence from a trace behind perfect fetch, with no taken-branch
// limit, no redirect bubble and no group boundary: that is the paper's
// Section 3 ideal machine (internal/ideal), whose only fetch limits are the
// width and the window.
package pipeline

import (
	"fmt"

	"valuepred/internal/core"
	"valuepred/internal/fetch"
	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// Config parameterises the machine.
type Config struct {
	// Width is the decode/issue/commit width (paper: 40); behind perfect
	// fetch it is the ideal machine's fetch/issue width (the paper sweeps
	// 4, 8, 16, 32, 40).
	Width int
	// WindowSize is the instruction window; an instruction occupies a slot
	// from fetch to commit (paper: 40). There is no functional-unit limit:
	// a record executing in cycle k sat in the window through k-1, so no
	// more than WindowSize records share an execute cycle, and the paper's
	// 40 units never bind a 40-entry window.
	WindowSize int
	// BranchPenalty is the misprediction redirect bubble in cycles
	// (paper: 3): fetch resumes at the branch's execute cycle + penalty.
	// Run rejects a negative value.
	BranchPenalty int
	// ValuePenalty is the extra reschedule delay, beyond the normal
	// one-cycle forwarding, for a consumer that speculated on a wrong
	// value. The paper's "1 cycle value misprediction penalty" is the
	// reschedule happening one cycle after the correct value is produced,
	// i.e. normal forwarding latency, so the default is 0; set 1+ to model
	// a costlier recovery (see the ablation benchmarks). Run rejects
	// values outside [0, 1024].
	ValuePenalty int
	// HoldUntilCommit makes an instruction occupy its window slot until
	// in-order commit (ROB semantics) instead of freeing it at execute
	// (scheduling-window semantics, the paper's Section 3/5 model and the
	// default). Kept as an ablation knob.
	HoldUntilCommit bool
	// Predictor enables direct value prediction when non-nil.
	Predictor predictor.Predictor
	// Outcomes, when non-nil, enables direct value prediction from a
	// recorded outcome stream of the trace the fetch engine delivers,
	// instead of a live Predictor. Run rejects a stream whose length
	// differs from the trace's.
	Outcomes *predictor.Outcomes
	// Network, when non-nil, routes value predictions through the banked
	// delivery network instead of Predictor (Section 4). At most one of
	// Predictor, Outcomes and Network may be set.
	Network *core.Network
	// OracleVP models the perfect value predictor of the Table 3.2
	// walk-through: every value-producing instruction is predicted
	// correctly. It overrides Predictor, Outcomes and Network.
	OracleVP bool
	// IncludeMemoryDeps makes loads depend on the latest store to the
	// same address.
	IncludeMemoryDeps bool
	// LoadLatency is the execution latency of a load in cycles (default 1,
	// the paper's unit-latency model, which every other instruction keeps;
	// Run rejects values above 1024). Functional units are pipelined:
	// latency delays the result, not unit reuse. Value prediction hides
	// it for correctly predicted loads (see ablation.latency).
	LoadLatency int
	// Observer, when non-nil, is called once per instruction, in fetch
	// order, with its sequence number, fetch cycle and execute cycle.
	Observer func(seq, fetchCycle, execCycle uint64)
	// Obs, when non-nil, receives per-cycle stage occupancy, stall causes
	// and value-prediction outcomes. Observability is strictly write-only:
	// nothing recorded here feeds back into the simulation, so results are
	// bit-identical with Obs set or nil, and a nil Obs costs the hot loop
	// only a nil-check.
	Obs *obs.Sink
}

// latencyOf returns the execution latency of an opcode under cfg.
func (cfg Config) latencyOf(op isa.Opcode) uint64 {
	if op.IsLoad() {
		return uint64(max(cfg.LoadLatency, 1))
	}
	return 1
}

// DefaultConfig returns the paper's Section 5 machine without value
// prediction.
func DefaultConfig() Config {
	return Config{
		Width: 40, WindowSize: 40,
		BranchPenalty: 3, ValuePenalty: 0,
		IncludeMemoryDeps: true, LoadLatency: 1,
	}
}

// Result reports one simulation run.
type Result struct {
	// Insts and Cycles give the committed instruction count and the total
	// cycles; IPC is their ratio.
	Insts  uint64
	Cycles uint64
	// Attempted counts confident predictions made at fetch; Correct those
	// matching the committed value. Used counts correct predictions that
	// decoupled at least one consumer from an unexecuted producer; Useless
	// is Correct - Used (correct but the consumers' operands were ready
	// anyway — the phenomenon of Section 3).
	Attempted uint64
	Correct   uint64
	Used      uint64
	// DeniedSlots counts value-producing instructions whose prediction was
	// withheld by the network's router (bank conflict, hint drop, or a
	// merged copy of a denied primary).
	DeniedSlots uint64
	// Fetch carries the engine's statistics (branch accuracy, trace-cache
	// hit rate).
	Fetch fetch.Stats
	// BranchStallCycles counts cycles fetch was blocked waiting for a
	// mispredicted control transfer to resolve (plus the redirect bubble).
	BranchStallCycles uint64
	// WindowFullCycles counts cycles fetch was blocked by a full window.
	WindowFullCycles uint64
	// OccupancySum accumulates the window occupancy each cycle; divide by
	// Cycles for the average (see AvgOccupancy).
	OccupancySum uint64
}

// AvgOccupancy returns the mean instruction-window occupancy.
func (r Result) AvgOccupancy() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.OccupancySum) / float64(r.Cycles)
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Useless returns correct predictions that decoupled no consumer.
func (r Result) Useless() uint64 { return r.Correct - r.Used }

// Speedup returns the relative IPC gain of r over base in percent.
func Speedup(base, r Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (r.IPC()/base.IPC() - 1) * 100
}

// maxLatency is the largest ValuePenalty and LoadLatency Run accepts: they
// bound how far past its fetch an instruction can execute, and so the span
// of the clock's ring.
const maxLatency = 1024

// producer is the latest writer of a register, as its readers see it.
type producer struct {
	result       uint64 // cycle its value is forwardable: exec + latency
	right, wrong bool   // its value was predicted correctly / wrongly
	useful       uint64 // earliest execute cycle of a consumer it decoupled; 0 if none
}

// readyAt returns the earliest cycle, as far as p is concerned, at which a
// consumer fetched in cycle fetch may execute. A producer whose result is
// forwardable by fetch+1 binds it no more than the pipeline depth does;
// one still in flight binds it unless its value was predicted correctly.
func (p *producer) readyAt(fetch, penalty uint64) uint64 {
	switch {
	case p.result <= fetch+1 || p.right:
		return 0
	case p.wrong:
		return p.result + penalty
	}
	return p.result
}

// slot holds one cycle's counts: the instructions that execute in it, those
// that commit (and so leave the window) in it, and the correct predictions
// that first prove useful in it.
type slot struct{ exec, commit, useful int }

// clock walks the run's cycles in order: it knows the current fetch cycle
// and the window, keeps a ring of per-cycle counts for the cycles ahead
// and, with Obs set, reports each cycle to Obs as it closes.
type clock struct {
	now       uint64 // current fetch cycle
	fetched   int    // instructions fetched in cycle now
	inflight  int    // window occupancy: fetched by cycle now, not yet committed
	occupancy uint64 // sum over the closed cycles of the occupancy before fetch
	ring      []slot // slot k&(len-1) belongs to cycle k, for now <= k < now+len
	o         *obs.Sink
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
// the instructions that commit in it. Closing adds the cycle's occupancy
// before fetch and reports the cycle to Obs: the predictions that first
// proved useful in it, then its stage counts.
func (c *clock) tick() {
	s := c.at(c.now)
	c.occupancy += uint64(c.inflight - c.fetched)
	if c.o != nil {
		for range s.useful {
			c.o.VPUseful()
		}
		c.o.Cycle(c.now, c.fetched, s.exec, s.commit, c.inflight)
	}
	*s = slot{}
	c.now++
	c.fetched = 0
	c.inflight -= c.at(c.now).commit
}

// machine is one run's state, whichever entry point feeds it records.
type machine struct {
	cfg        Config
	res        Result
	clk        clock
	s          *scratch
	regs       [32]producer
	lastCommit uint64 // commit cycle of the youngest instruction, with HoldUntilCommit
}

// start validates cfg and readies m for a run in cycle 1, drawing its
// scratch from the pool; the caller returns it with putScratch(m.s).
// OracleVP clears the other ways of predicting values from m's copy.
func (m *machine) start(cfg Config) error {
	if cfg.Width <= 0 || cfg.WindowSize <= 0 ||
		cfg.BranchPenalty < 0 || cfg.ValuePenalty < 0 ||
		max(cfg.ValuePenalty, cfg.LoadLatency) > maxLatency {
		return fmt.Errorf("pipeline: invalid config %+v", cfg)
	}
	if (cfg.Predictor != nil && cfg.Network != nil) || (cfg.Outcomes != nil && (cfg.Predictor != nil || cfg.Network != nil)) {
		return fmt.Errorf("pipeline: set at most one of Predictor, Outcomes and Network")
	}
	if cfg.OracleVP {
		cfg.Predictor, cfg.Outcomes, cfg.Network = nil, nil, nil
	}
	m.cfg, m.s = cfg, getScratch() // the store map, the ring's array and the buffers
	m.clk = clock{now: 1, ring: m.s.ring, o: cfg.Obs}
	return nil
}

// finish closes the run once its last record is fetched. The machine runs
// until its window drains (an empty trace takes the one cycle that finds
// it empty); a last tick closes that cycle.
func (m *machine) finish() (Result, error) {
	clk, res := &m.clk, &m.res
	if m.cfg.Outcomes != nil && res.Insts != uint64(m.cfg.Outcomes.Len()) {
		return Result{}, errOutcomesLen(m.cfg.Outcomes)
	}
	for clk.inflight > 0 {
		clk.tick()
	}
	res.Cycles = clk.now
	clk.tick()
	res.OccupancySum = clk.occupancy
	clk.o.RunDone(res.Insts, res.Cycles, res.Correct, res.Used)
	m.s.ring = clk.ring // hand the (possibly grown) ring back for the next run
	return *res, nil
}

// Run simulates the trace delivered by eng under cfg. Issue is oldest-first
// and commit in order, so each instruction's cycles depend only on older
// instructions, and Run computes them in one pass in fetch order
// (DESIGN.md §7):
//
//   - a group is fetched in the first cycle after the previous group's, and
//     not before the last mispredicted branch executes plus BranchPenalty,
//     with a free window slot; it holds up to min(free slots, Width) records;
//   - a record executes at fetch+2 or, if later, at the result cycle of
//     each unpredicted in-flight producer (plus ValuePenalty for a
//     mispredicted one); a correctly predicted one adds no constraint, and
//     counts once in Used if a consumer executes before its result;
//   - it leaves the window as it executes or, with HoldUntilCommit, at
//     commit: the first cycle at or after exec+1 and the previous commit
//     with fewer than Width commits.
func Run(eng fetch.Engine, cfg Config) (Result, error) {
	var m machine
	if err := m.start(cfg); err != nil {
		return Result{}, err
	}
	defer putScratch(m.s)
	clk, res := &m.clk, &m.res
	if cfg.Obs != nil { // nil when instrumentation is disabled
		fetch.Instrument(eng, cfg.Obs)
	}

	var resume uint64 // no fetch before the last mispredicted branch executes, plus the penalty
	for {
		if clk.now > 1<<40 {
			return Result{}, fmt.Errorf("pipeline: runaway simulation (deadlock?)")
		}
		space := min(cfg.WindowSize-clk.inflight, cfg.Width)
		if clk.now < resume {
			res.BranchStallCycles++
			clk.o.StallBranch()
		} else if space <= 0 {
			res.WindowFullCycles++
			clk.o.StallWindow()
		} else {
			g, ok := eng.NextGroup(space)
			if !ok {
				break
			}
			exec, err := m.ingest(g.Recs)
			if err != nil {
				return Result{}, err
			}
			if g.Mispredict && len(g.Recs) > 0 {
				resume = exec + uint64(cfg.BranchPenalty)
			}
		}
		clk.tick()
	}
	res.Fetch = eng.Stats()
	return m.finish()
}

// RunPerfectFetch simulates src under cfg behind perfect fetch: each cycle
// fetches the next min(free window slots, Width) records of src, so no
// branch ever stalls fetch and no group ends early. This is the paper's
// Section 3 ideal machine. It counts no stall cycles and leaves
// Result.Fetch zero; BranchPenalty has nothing to act on. It reads the
// groups of a trace.Viewer in place and those of a bare Source into a
// pooled buffer.
func RunPerfectFetch(src trace.Source, cfg Config) (Result, error) {
	var m machine
	if err := m.start(cfg); err != nil {
		return Result{}, err
	}
	defer putScratch(m.s)
	view, viewing := src.(trace.Viewer)
	for {
		if space := min(cfg.WindowSize-m.clk.inflight, cfg.Width); space > 0 {
			var g []trace.Rec
			if viewing {
				g = m.viewGroup(view, space)
			} else {
				g = m.readGroup(src, space)
			}
			if len(g) == 0 {
				break
			}
			if _, err := m.ingest(g); err != nil {
				return Result{}, err
			}
		}
		m.clk.tick()
	}
	return m.finish()
}

// viewGroup returns v's next up to n records as v lends them, in place,
// except a group that straddles two of v's chunks: a short view is copied
// into the scratch's group buffer before the next View can decode over it
// or release it, and the group is assembled there.
func (m *machine) viewGroup(v trace.Viewer, n int) []trace.Rec {
	g := v.View(n)
	if len(g) == n || len(g) == 0 {
		return g
	}
	buf := append(m.s.group[:0], g...)
	for len(buf) < n {
		more := v.View(n - len(buf))
		if len(more) == 0 {
			break
		}
		buf = append(buf, more...)
	}
	m.s.group = buf
	return buf
}

// readGroup reads src's next up to n records into the scratch's group
// buffer, one Next at a time.
func (m *machine) readGroup(src trace.Source, n int) []trace.Rec {
	g := m.s.group[:0]
	for len(g) < n {
		rec, ok := src.Next()
		if !ok {
			break
		}
		g = append(g, rec)
	}
	m.s.group = g
	return g
}

// ingest fetches one group in cycle m.clk.now: it takes the group's
// value-prediction outcomes (directly or through the network), places each
// record's execute and commit cycles in program order and publishes it as
// a producer. It returns the last record's execute cycle, or an error if
// the recorded outcome stream ends before the group does.
func (m *machine) ingest(recs []trace.Rec) (exec uint64, err error) {
	cfg, clk, res := &m.cfg, &m.clk, &m.res
	fetch, penalty := clk.now, uint64(cfg.ValuePenalty)
	if cfg.Outcomes != nil && res.Insts+uint64(len(recs)) > uint64(cfg.Outcomes.Len()) {
		return 0, errOutcomesLen(cfg.Outcomes)
	}

	// Network mode performs all lookups for the group first (the banked
	// table is read once per cycle), then updates record by record. The
	// replies come one per value-producing record, in program order.
	var replies []core.Slot
	if cfg.Network != nil {
		pcs := m.s.pcs[:0]
		for _, rec := range recs {
			if rec.WritesValue() {
				pcs = append(pcs, rec.PC)
			}
		}
		m.s.pcs = pcs
		replies = cfg.Network.ProcessGroup(pcs)
	}

	for i := range recs {
		rec := &recs[i] // read in place: a record is 64 bytes
		writes := rec.WritesValue()
		var right, wrong bool
		if writes {
			var confident, correct bool
			switch {
			case cfg.OracleVP:
				confident, correct = true, true
			case cfg.Network != nil:
				r := replies[0]
				replies = replies[1:]
				if r.Denied {
					res.DeniedSlots++
					clk.o.VPDenied()
				}
				confident, correct = r.Valid, r.Pred.Value == rec.Val
				cfg.Network.Update(rec.PC, rec.Val)
			case cfg.Predictor != nil || cfg.Outcomes != nil:
				confident, correct = predictor.Step(cfg.Predictor, cfg.Outcomes, int(res.Insts), rec)
			}
			if confident {
				right, wrong = correct, !correct
				res.Attempted++
				if right {
					res.Correct++
				}
				clk.o.VPAttempt(right)
			}
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
		exec = fetch + 2
		for _, r := range rs {
			exec = max(exec, m.regs[r].readyAt(fetch, penalty))
		}
		if cfg.IncludeMemoryDeps && rec.Op.IsLoad() {
			// Stores are never predicted and take one cycle; an absent
			// address reads as 0.
			exec = max(exec, m.s.stores[rec.Addr]+1)
		}
		// Without HoldUntilCommit it commits, and leaves the window, as it
		// executes.
		cycle := clk.at(exec)
		cycle.exec++
		if !cfg.HoldUntilCommit {
			cycle.commit++
		}

		// A correctly predicted in-flight producer whose result is not
		// forwardable yet decoupled this consumer: it counts once in Used,
		// and in the per-cycle counts at its earliest such consumer's cycle.
		for _, r := range rs {
			p := &m.regs[r]
			if !p.right || p.result <= exec || (p.useful != 0 && p.useful <= exec) {
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

		if cfg.HoldUntilCommit {
			commit := max(exec+1, m.lastCommit)
			for clk.at(commit).commit == cfg.Width {
				commit++
			}
			m.lastCommit = commit
			clk.at(commit).commit++
		}

		if writes {
			m.regs[rec.Rd] = producer{result: exec + cfg.latencyOf(rec.Op), right: right, wrong: wrong}
		}
		if cfg.IncludeMemoryDeps && rec.Op.IsStore() {
			m.s.stores[rec.Addr] = exec
		}
		if cfg.Observer != nil {
			cfg.Observer(rec.Seq, fetch, exec)
		}
		clk.fetched++
		clk.inflight++
		res.Insts++
	}
	return exec, nil
}

// errOutcomesLen reports a recorded outcome stream that does not match the
// trace the fetch engine delivered.
func errOutcomesLen(o *predictor.Outcomes) error {
	return fmt.Errorf("pipeline: outcome stream of %d records does not match the trace", o.Len())
}

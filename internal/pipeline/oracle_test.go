package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/core"
	"valuepred/internal/fetch"
	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// This file keeps the cycle-stepped engine that Run replaced, as the
// differential oracle for the one-pass recurrence: TestRunMatchesOracle
// and FuzzRunMatchesOracle require both engines to agree on Result, on
// every record's (seq, fetch, exec) triple and on the Obs output. The
// scheduling code is the old engine's, unchanged apart from its names, one
// fix in addDep, the Observer call and the functional-unit cap it no
// longer applies (the machine has no such limit: DESIGN.md §7); only the
// pooled arenas and free list it drew its entries from are replaced by
// plain allocation, which changes no timing and makes the entry.left
// recycling gate unnecessary.

type producerInfo struct {
	execCycle  uint64
	resultAt   uint64 // cycle the value becomes forwardable (exec + latency)
	done       bool
	predicted  bool
	correct    bool
	usefulSeen bool
}

type entry struct {
	rec       trace.Rec
	earliest  uint64
	availAt   uint64
	executed  bool
	execCycle uint64
	prod      *producerInfo
	waitOn    []*producerInfo
	mispredOn []*producerInfo
	specOn    []*producerInfo
}

// addDep records one operand dependence on producer p. A producer stays
// in flight for this consumer, even once executed, until its result is
// forwardable: one forwardable by fetch+1 (w.earliest-1) binds no more
// than the pipeline depth does.
func (w *entry) addDep(p *producerInfo) {
	switch {
	case p == nil:
		return
	case p.done && p.resultAt < w.earliest:
		return
	case p.predicted && p.correct:
		w.specOn = append(w.specOn, p)
	case p.predicted:
		w.mispredOn = append(w.mispredOn, p)
	default:
		w.waitOn = append(w.waitOn, p)
	}
}

func (w *entry) ready(cycle uint64) bool {
	return !w.executed && len(w.waitOn) == 0 && len(w.mispredOn) == 0 &&
		w.earliest <= cycle && w.availAt <= cycle
}

func (w *entry) resolve(valuePenalty uint64) {
	n := 0
	for _, p := range w.waitOn {
		if p.done {
			if p.resultAt > w.availAt {
				w.availAt = p.resultAt
			}
		} else {
			w.waitOn[n] = p
			n++
		}
	}
	w.waitOn = w.waitOn[:n]
	n = 0
	for _, p := range w.mispredOn {
		if p.done {
			if at := p.resultAt + valuePenalty; at > w.availAt {
				w.availAt = at
			}
		} else {
			w.mispredOn[n] = p
			n++
		}
	}
	w.mispredOn = w.mispredOn[:n]
}

// oracleRun simulates the trace delivered by eng under cfg by stepping the
// machine one cycle at a time, re-polling every window entry each cycle.
// Its Observer calls arrive in execute order rather than fetch order.
func oracleRun(eng fetch.Engine, cfg Config) (Result, error) {
	if cfg.Width <= 0 || cfg.WindowSize <= 0 ||
		cfg.BranchPenalty < 0 || cfg.ValuePenalty < 0 {
		return Result{}, fmt.Errorf("pipeline: invalid config %+v", cfg)
	}
	if cfg.Predictor != nil && cfg.Network != nil {
		return Result{}, fmt.Errorf("pipeline: set either Predictor or Network, not both")
	}
	var res Result
	var regProd [32]*producerInfo
	memProd := make(map[uint64]*producerInfo)
	// window holds entries from fetch to commit, in program order.
	var window []*entry
	valuePenalty := uint64(cfg.ValuePenalty)

	o := cfg.Obs // nil when instrumentation is disabled
	if o != nil {
		fetch.Instrument(eng, o)
	}

	var stallOn *entry // mispredicted control transfer gating fetch
	var cycle uint64 = 1
	eof := false

	for {
		// Commit: with ROB semantics, retire in order, up to Width per
		// cycle, one cycle after execute.
		committed := 0
		if cfg.HoldUntilCommit {
			for committed < len(window) && committed < cfg.Width {
				head := window[committed]
				if !head.executed || head.execCycle >= cycle {
					break
				}
				committed++
			}
			window = window[committed:]
		}

		// Execute: every ready entry, oldest-first. With scheduling-window
		// semantics an instruction leaves its slot when it executes.
		executed := 0
		n := 0
		for _, w := range window {
			if !w.executed {
				w.resolve(valuePenalty)
				if w.ready(cycle) {
					w.executed = true
					w.execCycle = cycle
					w.prod.execCycle = cycle
					w.prod.resultAt = cycle + cfg.latencyOf(w.rec.Op)
					w.prod.done = true
					res.Insts++
					executed++
					if cfg.Observer != nil {
						cfg.Observer(w.rec.Seq, w.earliest-2, cycle) // fetched two cycles before earliest
					}
					for _, p := range w.specOn {
						// Useful iff the producer's value was not yet
						// forwardable when this consumer executed.
						if (!p.done || p.resultAt > cycle) && !p.usefulSeen {
							p.usefulSeen = true
							res.Used++
							if o != nil {
								o.VPUseful()
							}
						}
					}
					if !cfg.HoldUntilCommit {
						continue
					}
				}
			}
			window[n] = w
			n++
		}
		window = window[:n]

		res.OccupancySum += uint64(len(window))

		// Fetch: blocked while a mispredicted branch is unresolved.
		fetched := 0
		canFetch := !eof
		if stallOn != nil {
			if stallOn.executed && cycle >= stallOn.execCycle+uint64(cfg.BranchPenalty) {
				stallOn = nil
			} else {
				canFetch = false
				if !eof {
					res.BranchStallCycles++
					if o != nil {
						o.StallBranch()
					}
				}
			}
		}
		if canFetch {
			space := cfg.WindowSize - len(window)
			if space > cfg.Width {
				space = cfg.Width
			}
			if space <= 0 {
				res.WindowFullCycles++
				if o != nil {
					o.StallWindow()
				}
			}
			if space > 0 {
				g, ok := eng.NextGroup(space)
				if !ok {
					eof = true
				} else {
					before := len(window)
					window = oracleIngest(g.Recs, cycle, cfg, &res, regProd[:], memProd, window)
					fetched = len(window) - before
					if g.Mispredict && fetched > 0 {
						stallOn = window[len(window)-1]
					}
				}
			}
		}

		if o != nil {
			// With scheduling-window semantics an instruction leaves its slot
			// (and architecturally commits) at execute, so the commit-stage
			// count mirrors the execute count.
			if !cfg.HoldUntilCommit {
				committed = executed
			}
			o.Cycle(cycle, fetched, executed, committed, len(window))
		}

		if eof && len(window) == 0 {
			break
		}
		cycle++
		if cycle > 1<<40 {
			return Result{}, fmt.Errorf("pipeline: runaway simulation (deadlock?)")
		}
	}
	res.Cycles = cycle
	res.Fetch = eng.Stats()
	if o != nil {
		o.RunDone(res.Insts, res.Cycles, res.Correct, res.Used)
	}
	return res, nil
}

// oracleIngest turns a fetch group into window entries appended to
// window: it performs the group's value-prediction lookups (directly or
// through the network), wires dependence edges and publishes producers.
func oracleIngest(recs []trace.Rec, cycle uint64, cfg Config, res *Result,
	regProd []*producerInfo, memProd map[uint64]*producerInfo, window []*entry) []*entry {

	// Network mode performs all lookups for the group first (the banked
	// table is read once per cycle), then updates after wiring.
	var slots []core.Slot
	var slotIdx []int // entry index -> slot index, -1 for non-writers
	if cfg.Network != nil {
		var pcs []uint64
		for _, rec := range recs {
			si := -1
			if rec.WritesValue() {
				si = len(pcs)
				pcs = append(pcs, rec.PC)
			}
			slotIdx = append(slotIdx, si)
		}
		slots = cfg.Network.ProcessGroup(pcs)
	}

	for i, rec := range recs {
		w := &entry{}
		w.rec, w.earliest = rec, cycle+2
		w.prod = &producerInfo{}

		if rec.WritesValue() {
			switch {
			case cfg.Network != nil:
				slot := slots[slotIdx[i]]
				if slot.Denied {
					res.DeniedSlots++
					if cfg.Obs != nil {
						cfg.Obs.VPDenied()
					}
				}
				if slot.Valid {
					w.prod.predicted = true
					w.prod.correct = slot.Pred.Value == rec.Val
					res.Attempted++
					if w.prod.correct {
						res.Correct++
					}
					if cfg.Obs != nil {
						cfg.Obs.VPAttempt(w.prod.correct)
					}
				}
			case cfg.Predictor != nil:
				pr := cfg.Predictor.Lookup(rec.PC)
				if pr.Confident {
					w.prod.predicted = true
					w.prod.correct = pr.Value == rec.Val
					res.Attempted++
					if w.prod.correct {
						res.Correct++
					}
					if cfg.Obs != nil {
						cfg.Obs.VPAttempt(w.prod.correct)
					}
				}
				cfg.Predictor.Update(rec.PC, rec.Val)
			}
		}

		if rec.Op.ReadsRs1() && rec.Rs1 != 0 {
			w.addDep(regProd[rec.Rs1])
		}
		if rec.Op.ReadsRs2() && rec.Rs2 != 0 {
			w.addDep(regProd[rec.Rs2])
		}
		if cfg.IncludeMemoryDeps && rec.Op.IsLoad() {
			w.addDep(memProd[rec.Addr])
		}

		if rec.WritesValue() {
			regProd[rec.Rd] = w.prod
		}
		if cfg.IncludeMemoryDeps && rec.Op.IsStore() {
			memProd[rec.Addr] = w.prod
		}
		window = append(window, w)
	}

	// Network mode: speculative updates corrected with committed values.
	if cfg.Network != nil {
		for _, rec := range recs {
			if rec.WritesValue() {
				cfg.Network.Update(rec.PC, rec.Val)
			}
		}
	}
	return window
}

// timing is one Observer call.
type timing struct{ seq, fetch, exec uint64 }

// outcome is what a comparison inspects of one run: its Result, every
// record's cycles (sorted by seq, since the engines report in different
// orders) and, with Obs set, the registry's text snapshot and the tracer's
// JSON at sample 1.
type outcome struct {
	res            Result
	timings        []timing
	metrics, trace string
}

// engineFunc is Run or oracleRun.
type engineFunc func(fetch.Engine, Config) (Result, error)

// vpMode selects how a run predicts values: not at all, through a direct
// predictor, or through the banked network.
type vpMode int

const (
	noVP vpMode = iota
	strideVP
	classifiedVP
	networkVP
	numVPModes
)

func (m vpMode) String() string {
	return [...]string{"no-vp", "stride", "classified-stride", "network"}[m]
}

// newPredictor returns a fresh direct predictor for m, or nil when m
// predicts no values or predicts them through the network.
func (m vpMode) newPredictor() predictor.Predictor {
	switch m {
	case strideVP:
		return predictor.NewStride()
	case classifiedVP:
		return predictor.NewClassifiedStride()
	}
	return nil
}

// observe runs one engine on a fresh fetch engine from newEng, with fresh
// prediction state for mode, and records its outcome.
func observe(t testing.TB, run engineFunc, newEng func() fetch.Engine, cfg Config, mode vpMode, withObs bool) outcome {
	t.Helper()
	out, err := observeRun(run, newEng(), cfg, mode, withObs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// observeRun runs one engine on eng, with fresh prediction state for mode,
// and records its outcome.
func observeRun(run engineFunc, eng fetch.Engine, cfg Config, mode vpMode, withObs bool) (outcome, error) {
	cfg.Predictor = mode.newPredictor()
	if mode == networkVP {
		cfg.Network = core.MustNew(core.DefaultConfig())
	}
	var out outcome
	cfg.Observer = func(seq, fetch, exec uint64) {
		out.timings = append(out.timings, timing{seq, fetch, exec})
	}
	reg, tr := obs.NewRegistry(), obs.NewTracer(1)
	if withObs {
		cfg.Obs = obs.New(reg, tr).Track("run")
	}
	res, err := run(eng, cfg)
	if err != nil {
		return out, err
	}
	out.res = res
	sort.Slice(out.timings, func(i, j int) bool { return out.timings[i].seq < out.timings[j].seq })
	if withObs {
		var m, j strings.Builder
		if err := reg.Snapshot().WriteText(&m); err != nil {
			return out, err
		}
		if err := tr.WriteJSON(&j); err != nil {
			return out, err
		}
		out.metrics, out.trace = m.String(), j.String()
	}
	return out, nil
}

// observeShared runs Run under cfg and mode as one consumer of a
// chunk.Share over a cursor of q, as a streamed experiment pass does.
// With a direct predictor, a recorder declared before it records the
// outcome stream it replays as the read goes. A second machine, with
// mode's own prediction, reads beside it. It returns both outcomes.
func observeShared(t testing.TB, q *chunk.Seq, e namedEngine, cfg Config, mode vpMode) (replayed, second outcome) {
	t.Helper()
	first, firstMode := cfg, mode
	var consumers []func(trace.Source)
	if p := mode.newPredictor(); p != nil {
		first.Outcomes, firstMode = predictor.NewOutcomes(q.Len()), noVP
		consumers = append(consumers, func(src trace.Source) { first.Outcomes.Record(p, src) })
	}
	var errs [2]error
	consumers = append(consumers,
		func(src trace.Source) { replayed, errs[0] = observeRun(Run, e.new(src), first, firstMode, false) },
		func(src trace.Source) { second, errs[1] = observeRun(Run, e.new(src), cfg, mode, false) })
	c := chunk.NewCursor(q, q.Len())
	if err := chunk.Share(context.Background(), c, consumers...); err != nil {
		t.Fatal(err)
	}
	for _, err := range append(errs[:], c.Err()) {
		if err != nil {
			t.Fatal(err)
		}
	}
	return replayed, second
}

// diff describes the first way two outcomes differ, or returns "".
func (want outcome) diff(got outcome) string {
	if got.res != want.res {
		return fmt.Sprintf("Result %+v, oracle %+v", got.res, want.res)
	}
	if len(got.timings) != len(want.timings) {
		return fmt.Sprintf("%d Observer calls, oracle %d", len(got.timings), len(want.timings))
	}
	for i := range want.timings {
		if got.timings[i] != want.timings[i] {
			return fmt.Sprintf("(seq, fetch, exec) %v, oracle %v", got.timings[i], want.timings[i])
		}
	}
	if got.metrics != want.metrics {
		return fmt.Sprintf("registry snapshot:\n%s\noracle:\n%s", got.metrics, want.metrics)
	}
	if got.trace != want.trace {
		return "tracer JSON differs from the oracle's"
	}
	return ""
}

// compare runs Run and the oracle under cfg and mode, each on a fresh
// fetch engine e builds over recs, and reports any difference: Run must
// match the oracle with Obs set, and its Result and timings with Obs nil,
// which takes the uninstrumented path, also when e reads recs from a
// cursor over 7-record chunks through its bounded window, which fills in
// bulk from the cursor's views, and when it reads that cursor as one
// consumer of a shared read (see observeShared). With a direct predictor,
// Run must also match the oracle when it replays the outcome stream a
// fresh predictor records over recs. label names the trace and engine in
// failures.
func compare(t testing.TB, label string, recs []trace.Rec, e namedEngine, cfg Config, mode vpMode) {
	t.Helper()
	label = fmt.Sprintf("%s/%s/%s width=%d window=%d bpen=%d vpen=%d lat=%d rob=%v mem=%v",
		label, e.name, mode, cfg.Width, cfg.WindowSize, cfg.BranchPenalty, cfg.ValuePenalty,
		cfg.LoadLatency, cfg.HoldUntilCommit, cfg.IncludeMemoryDeps)
	newEng := func() fetch.Engine { return e.new(trace.NewSliceSource(recs)) }
	want := observe(t, oracleRun, newEng, cfg, mode, true)
	if d := want.diff(observe(t, Run, newEng, cfg, mode, true)); d != "" {
		t.Errorf("%s: %s", label, d)
	}
	if p := mode.newPredictor(); p != nil {
		replay := cfg
		replay.Outcomes, _ = predictor.RecordOutcomes(p, trace.NewSliceSource(recs))
		if d := want.diff(observe(t, Run, newEng, replay, noVP, true)); d != "" {
			t.Errorf("%s replaying recorded outcomes: %s", label, d)
		}
	}
	want.metrics, want.trace = "", ""
	if d := want.diff(observe(t, Run, newEng, cfg, mode, false)); d != "" {
		t.Errorf("%s without Obs: %s", label, d)
	}
	q, err := chunk.Build(trace.NewSliceSource(recs), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	chunked := func() fetch.Engine { return e.new(chunk.NewCursor(q, q.Len())) }
	if d := want.diff(observe(t, Run, chunked, cfg, mode, false)); d != "" {
		t.Errorf("%s from a chunk cursor: %s", label, d)
	}
	replayed, second := observeShared(t, q, e, cfg, mode)
	if d := want.diff(replayed); d != "" {
		t.Errorf("%s from a shared read: %s", label, d)
	}
	if d := want.diff(second); d != "" {
		t.Errorf("%s from a shared read, second machine: %s", label, d)
	}
}

// oracleConfigs are the machine variations TestRunMatchesOracle sweeps:
// the paper's machine, ROB commit, a narrow machine, multi-cycle
// latencies, a value-misprediction penalty, no and a long branch
// redirect, and small and large windows.
func oracleConfigs() []Config {
	vary := []func(*Config){
		func(*Config) {},
		func(c *Config) { c.HoldUntilCommit = true },
		func(c *Config) { c.Width = 8 },
		func(c *Config) { c.HoldUntilCommit, c.LoadLatency = true, 2 },
		func(c *Config) { c.LoadLatency, c.WindowSize = 5, 80 },
		func(c *Config) { c.ValuePenalty, c.LoadLatency = 2, 3 },
		func(c *Config) { c.BranchPenalty, c.IncludeMemoryDeps = 0, false },
		func(c *Config) { c.BranchPenalty, c.HoldUntilCommit = 7, true },
		func(c *Config) { c.WindowSize, c.Width = 3, 2 },
		func(c *Config) { c.WindowSize, c.Width, c.HoldUntilCommit = 8, 4, true },
	}
	cfgs := make([]Config, len(vary))
	for i, v := range vary {
		cfgs[i] = DefaultConfig()
		v(&cfgs[i])
	}
	return cfgs
}

// namedEngine builds a fresh fetch engine over a source for every run.
type namedEngine struct {
	name string
	new  func(trace.Source) fetch.Engine
}

// oracleEngines are the fetch engines the oracle comparisons sweep. Over
// a slice source each takes the flat path that the slice constructors
// (fetch.NewSequential, fetch.NewTraceCache) take.
var oracleEngines = []namedEngine{
	{"seq-n1-perfect", func(src trace.Source) fetch.Engine { return fetch.NewSequentialSource(src, btb.NewPerfect(), 1) }},
	{"seq-n4-2level", func(src trace.Source) fetch.Engine { return fetch.NewSequentialSource(src, twoLevel(), 4) }},
	{"seq-unlimited-perfect", func(src trace.Source) fetch.Engine { return fetch.NewSequentialSource(src, btb.NewPerfect(), -1) }},
	{"tracecache-2level", func(src trace.Source) fetch.Engine {
		return fetch.NewTraceCacheSource(src, twoLevel(), fetch.DefaultTCConfig())
	}},
	{"collapsing-2level", func(src trace.Source) fetch.Engine { return fetch.NewCollapsingBufferSource(src, twoLevel()) }},
}

func twoLevel() btb.Predictor { return btb.NewTwoLevel(btb.DefaultTwoLevelConfig()) }

// TestRunMatchesOracle requires the one-pass engine to reproduce the
// cycle-stepped oracle on every workload, under five fetch engines, four
// ways of predicting values and ten machine configurations.
func TestRunMatchesOracle(t *testing.T) {
	n := 1_000
	if testing.Short() {
		n = 300
	}
	cfgs := oracleConfigs()
	for _, name := range workload.Names() {
		recs := workload.MustTrace(name, 1, n)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, e := range oracleEngines {
				for mode := noVP; mode < numVPModes; mode++ {
					for _, cfg := range cfgs {
						compare(t, name, recs, e, cfg, mode)
					}
				}
			}
		})
	}
}

// TestStoreTablePurgeKeepsInFlightStores runs a trace with four times more
// distinct store addresses than the store table has slots, so the table
// purges many times, while one store is kept in flight across every purge:
// its data comes from a load with a 300-cycle latency. A load from the
// same address, fetched after the purges, must still wait for that store,
// and both engines must agree on every record under every fetch engine,
// also with ROB commit (where the store's commit holds back fetch, so the
// load comes late).
func TestStoreTablePurgeKeepsInFlightStores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadLatency = 300
	var tab storeTable
	tab.reset(cfg.WindowSize)
	stores := 4 * len(tab.slots)
	recs := []trace.Rec{
		{Op: isa.LD, Rd: isa.T0, Rs1: isa.Zero, Addr: 0x100},
		{Op: isa.SD, Rs1: isa.Zero, Rs2: isa.T0, Addr: 0x200, Val: 7},
	}
	for i := range stores {
		recs = append(recs, trace.Rec{Op: isa.SD, Rs1: isa.Zero, Rs2: isa.Zero, Addr: 0x10000 + 8*uint64(i)})
	}
	recs = append(recs, trace.Rec{Op: isa.LD, Rd: isa.T1, Rs1: isa.Zero, Addr: 0x200, Val: 7})
	for i := range recs {
		recs[i].Seq, recs[i].PC = uint64(i), isa.PCOf(i)
		recs[i].Target = recs[i].PC + isa.InstBytes
	}
	var execs []uint64
	cfg.Observer = func(_, _, exec uint64) { execs = append(execs, exec) }
	if _, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg); err != nil {
		t.Fatal(err)
	}
	if store, load := execs[1], execs[len(execs)-1]; load != store+1 || store < 300 {
		t.Errorf("the store executes in cycle %d and the load from its address in %d, want %d", store, load, store+1)
	}
	cfg.Observer = nil
	for _, rob := range []bool{false, true} {
		cfg.HoldUntilCommit = rob
		for _, e := range oracleEngines {
			compare(t, "store table", recs, e, cfg, noVP)
		}
	}
}

// FuzzRunMatchesOracle feeds random traces through both engines: loads
// and stores on four addresses, ALU operations, multiplies, divides and
// branches on four registers (x0 among them), values from a small set so
// that the stride predictor is sometimes right, random branch outcomes,
// and a random machine: width, window, both penalties, the load latency,
// ROB commit, memory dependences, the way values are predicted and the
// fetch engine. The fus argument and the high bits of latencies choose
// nothing; they stay so that the committed corpus still decodes.
func FuzzRunMatchesOracle(f *testing.F) {
	f.Add([]byte("a chain of loads, stores, multiplies and branches"), uint8(4), uint8(8), uint8(2), uint8(0x13), uint8(0x24), uint8(0x05))
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb}, uint8(1), uint8(1), uint8(0), uint8(0x07), uint8(0x3f), uint8(0x1a))
	f.Fuzz(func(t *testing.T, data []byte, width, window, _, penalties, latencies, mode uint8) {
		ops := []isa.Opcode{isa.LD, isa.SD, isa.ADD, isa.ADDI, isa.LI, isa.BEQ, isa.NOP, isa.MUL, isa.DIV}
		regs := []isa.Reg{isa.Zero, isa.T0, isa.T1, isa.T2}
		var recs []trace.Rec
		for i := 0; i+2 < len(data) && len(recs) < 512; i += 3 {
			a, b, c := data[i], data[i+1], data[i+2]
			recs = append(recs, trace.Rec{
				Seq: uint64(len(recs)), PC: isa.PCOf(int(a >> 4)), Op: ops[int(a&15)%len(ops)],
				Rd: regs[b&3], Rs1: regs[b>>2&3], Rs2: regs[b>>4&3],
				Val: uint64(b >> 6), Addr: uint64(c&3) * 8,
				Taken: c&4 != 0, Target: isa.PCOf(int(c >> 3 & 15)),
			})
		}
		cfg := Config{
			Width:             1 + int(width%48),
			WindowSize:        1 + int(window%48),
			BranchPenalty:     int(penalties % 8),
			ValuePenalty:      int(penalties >> 3 % 4),
			LoadLatency:       1 + int(latencies%5),
			HoldUntilCommit:   mode&1 != 0,
			IncludeMemoryDeps: mode&2 == 0,
		}
		e := oracleEngines[int(mode>>4)%len(oracleEngines)]
		compare(t, "fuzz", recs, e, cfg, vpMode(mode>>2%4))
	})
}

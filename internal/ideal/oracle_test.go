package ideal

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"valuepred/internal/chunk"
	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// This file keeps the cycle-stepped engine that Run replaced, as the
// differential oracle for the one-pass recurrence: TestRunMatchesOracle
// and FuzzRunMatchesOracle require both engines to agree on Result, on
// every (seq, fetch, exec) triple and on the Obs output. The scheduling
// code is the old engine's, under Section 3's fixed rules: the consumer of
// a wrong value waits for the producer like any other consumer, and a load
// depends on the latest store to its address. The pooled arenas it drew
// its entries from are replaced by plain allocation, which changes no
// timing.

// producerInfo is the bookkeeping for one in-flight (or executed) dynamic
// instruction viewed as a producer.
type producerInfo struct {
	execCycle  uint64
	done       bool
	predicted  bool // confident prediction existed at fetch
	correct    bool // ... and matched the actual value
	usefulSeen bool // a consumer was decoupled by it (counted once)
}

// windowEntry is one instruction in flight.
type windowEntry struct {
	seq       uint64
	fetchedAt uint64
	earliest  uint64 // fetch cycle + 2 (pipeline depth)
	availAt   uint64 // max availability over resolved operand constraints
	prod      *producerInfo
	waitOn    []*producerInfo // in-flight producers not predicted correctly
	specOn    []*producerInfo // correct predictions being speculated on
}

// ready reports whether the entry can execute at cycle.
func (w *windowEntry) ready(cycle uint64) bool {
	return len(w.waitOn) == 0 && w.earliest <= cycle && w.availAt <= cycle
}

// addDep records one operand dependence on producer p, classifying it the
// way the paper's protocol does: an already executed producer just bounds
// availAt; a correctly predicted in-flight producer is speculated past;
// everything else, a consumed misprediction included, is a plain wait.
func (w *windowEntry) addDep(p *producerInfo) {
	switch {
	case p == nil:
		return
	case p.done:
		if at := p.execCycle + 1; at > w.availAt {
			w.availAt = at
		}
	case p.predicted && p.correct:
		w.specOn = append(w.specOn, p)
	default:
		w.waitOn = append(w.waitOn, p)
	}
}

// resolve folds newly executed producers into availAt.
func (w *windowEntry) resolve() {
	n := 0
	for _, p := range w.waitOn {
		if p.done {
			if at := p.execCycle + 1; at > w.availAt {
				w.availAt = at
			}
		} else {
			w.waitOn[n] = p
			n++
		}
	}
	w.waitOn = w.waitOn[:n]
}

// oracleRun simulates the trace under cfg by stepping the machine one
// cycle at a time, re-polling every window entry each cycle. Its Observer
// calls arrive in execute order rather than fetch order.
func oracleRun(src trace.Source, cfg Config) (Result, error) {
	if cfg.Width <= 0 || cfg.WindowSize <= 0 {
		return Result{}, fmt.Errorf("ideal: invalid config %+v", cfg)
	}
	var res Result
	var regProd [32]*producerInfo
	memProd := make(map[uint64]*producerInfo)
	var window []*windowEntry

	o := cfg.Obs // nil when instrumentation is disabled

	var cycle uint64 = 1
	eof := false
	for {
		// Execute phase: every ready entry executes this cycle (unlimited
		// functional units). Entries are in fetch order, so a producer
		// executing this cycle is marked done before later consumers in
		// the same sweep — a same-cycle consumer counts as decoupled.
		executed := 0
		n := 0
		for _, w := range window {
			w.resolve()
			if w.ready(cycle) {
				w.prod.execCycle = cycle
				w.prod.done = true
				res.Insts++
				executed++
				if cfg.Observer != nil {
					cfg.Observer(w.seq, w.fetchedAt, cycle)
				}
				for _, p := range w.specOn {
					// Useful iff the producer had not finished strictly
					// before this consumer executed.
					if (!p.done || p.execCycle >= cycle) && !p.usefulSeen {
						p.usefulSeen = true
						res.Used++
						if o != nil {
							o.VPUseful()
						}
					}
				}
			} else {
				window[n] = w
				n++
			}
		}
		window = window[:n]

		// Fetch phase: up to Width instructions while the window has
		// room; they may execute two cycles later.
		fetched := 0
		for f := 0; f < cfg.Width && len(window) < cfg.WindowSize && !eof; f++ {
			rec, ok := src.Next()
			if !ok {
				eof = true
				break
			}
			w := &windowEntry{}
			w.seq, w.fetchedAt, w.earliest = rec.Seq, cycle, cycle+2
			w.prod = &producerInfo{}

			fetched++

			if cfg.OracleVP && rec.WritesValue() {
				w.prod.predicted = true
				w.prod.correct = true
				res.Attempted++
				res.Correct++
				if o != nil {
					o.VPAttempt(true)
				}
			} else if cfg.Predictor != nil && rec.WritesValue() {
				pr := cfg.Predictor.Lookup(rec.PC)
				if pr.Confident {
					w.prod.predicted = true
					w.prod.correct = pr.Value == rec.Val
					res.Attempted++
					if w.prod.correct {
						res.Correct++
					}
					if o != nil {
						o.VPAttempt(w.prod.correct)
					}
				}
				cfg.Predictor.Update(rec.PC, rec.Val)
			}

			if rec.Op.ReadsRs1() && rec.Rs1 != 0 {
				w.addDep(regProd[rec.Rs1])
			}
			if rec.Op.ReadsRs2() && rec.Rs2 != 0 {
				w.addDep(regProd[rec.Rs2])
			}
			if rec.Op.IsLoad() {
				w.addDep(memProd[rec.Addr])
			}

			if rec.WritesValue() {
				regProd[rec.Rd] = w.prod
			}
			if rec.Op.IsStore() {
				memProd[rec.Addr] = w.prod
			}
			window = append(window, w)
		}

		if o != nil {
			// The ideal machine commits one cycle after execute; the commit
			// count is reported as the execute count for display purposes.
			o.Cycle(cycle, fetched, executed, executed, len(window))
		}

		if eof && len(window) == 0 {
			break
		}
		cycle++
	}
	res.Cycles = cycle
	if o != nil {
		o.RunDone(res.Insts, res.Cycles, res.Correct, res.Used)
	}
	return res, nil
}

// engine is either implementation of the ideal machine.
type engine func(trace.Source, Config) (Result, error)

// timing is one Observer call.
type timing struct{ seq, fetch, exec uint64 }

// outcome is everything one run exposes: the Result, every instruction's
// cycles (sorted by seq, since the engines report in different orders),
// and the Obs output as the registry's text snapshot and the tracer's
// JSON at sample 1.
type outcome struct {
	res     Result
	timings []timing
	metrics string
	trace   string
}

// observe runs eng on recs under cfg with an Observer and, when withObs is
// set, an Obs sink recording every cycle.
func observe(t testing.TB, eng engine, recs []trace.Rec, cfg Config, withObs bool) outcome {
	t.Helper()
	out, err := observeRun(eng, trace.NewSliceSource(recs), cfg, withObs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// observeRun runs eng on src under cfg, as observe does.
func observeRun(eng engine, src trace.Source, cfg Config, withObs bool) (outcome, error) {
	var out outcome
	cfg.Observer = func(seq, fetch, exec uint64) {
		out.timings = append(out.timings, timing{seq, fetch, exec})
	}
	reg, tr := obs.NewRegistry(), obs.NewTracer(1)
	if withObs {
		cfg.Obs = obs.New(reg, tr).Track("run")
	}
	res, err := eng(src, cfg)
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

// observeShared runs Run under cfg as one consumer of a chunk.Share over a
// cursor of recs in 7-record chunks, as a streamed experiment pass does.
// With newPred set, a recorder declared before it records the outcome
// stream it replays as the read goes. A second machine, with a live
// predictor from newPred, reads beside it. It returns both outcomes.
func observeShared(t testing.TB, recs []trace.Rec, cfg Config, newPred func() predictor.Predictor) (replayed, second outcome) {
	t.Helper()
	q, err := chunk.Build(trace.NewSliceSource(recs), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	first, live := cfg, cfg
	var consumers []func(trace.Source)
	if newPred != nil {
		p := newPred()
		first.Outcomes, live.Predictor = predictor.NewOutcomes(len(recs)), newPred()
		consumers = append(consumers, func(src trace.Source) { first.Outcomes.Record(p, src) })
	}
	var errs [2]error
	consumers = append(consumers,
		func(src trace.Source) { replayed, errs[0] = observeRun(Run, src, first, false) },
		func(src trace.Source) { second, errs[1] = observeRun(Run, src, live, false) })
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

// compare runs Run and the oracle on recs under cfg, each with a fresh
// predictor from newPred (nil for none), and reports any difference: Run
// must match the oracle with Obs set and its Result and timings with Obs
// nil, which takes the uninstrumented path, whether it views the slice
// source's records, reads them through the bare Source interface (see
// runOpaque), views them from a chunk cursor (see runChunked) or reads
// that cursor as one consumer of a shared read (see observeShared). With a
// predictor, Run must also match the oracle when it replays the outcome
// stream a fresh predictor records over recs. label names the trace and
// predictor in failure messages.
func compare(t testing.TB, label string, recs []trace.Rec, cfg Config, newPred func() predictor.Predictor) {
	t.Helper()
	with := func(cfg Config) Config {
		if newPred != nil {
			cfg.Predictor = newPred()
		}
		return cfg
	}
	label = fmt.Sprintf("%s width=%d window=%d oracleVP=%v", label, cfg.Width, cfg.WindowSize, cfg.OracleVP)
	want := observe(t, oracleRun, recs, with(cfg), true)
	if d := want.diff(observe(t, Run, recs, with(cfg), true)); d != "" {
		t.Errorf("%s: %s", label, d)
	}
	if newPred != nil {
		replay := cfg
		replay.Outcomes, _ = predictor.RecordOutcomes(newPred(), trace.NewSliceSource(recs))
		if d := want.diff(observe(t, Run, recs, replay, true)); d != "" {
			t.Errorf("%s replaying recorded outcomes: %s", label, d)
		}
	}
	want.metrics, want.trace = "", ""
	if d := want.diff(observe(t, Run, recs, with(cfg), false)); d != "" {
		t.Errorf("%s without Obs: %s", label, d)
	}
	if d := want.diff(observe(t, runOpaque, recs, with(cfg), false)); d != "" {
		t.Errorf("%s from a bare source: %s", label, d)
	}
	if d := want.diff(observe(t, runChunked, recs, with(cfg), false)); d != "" {
		t.Errorf("%s from a chunk cursor: %s", label, d)
	}
	replayed, second := observeShared(t, recs, cfg, newPred)
	if d := want.diff(replayed); d != "" {
		t.Errorf("%s from a shared read: %s", label, d)
	}
	if d := want.diff(second); d != "" {
		t.Errorf("%s from a shared read, second machine: %s", label, d)
	}
}

// runOpaque is Run over src hidden behind the bare Source interface, so
// the machine reads it record by record into its pooled group buffer, as
// it does vpbench's timing decorators, instead of viewing the slice.
func runOpaque(src trace.Source, cfg Config) (Result, error) {
	return Run(struct{ trace.Source }{src}, cfg)
}

// runChunked is Run over a cursor of src compressed into 7-record chunks,
// so the machine views each group in place, assembles in its group buffer
// the groups that straddle chunks (every group wider than 7 records does),
// and ends on a short last chunk unless the trace length is a multiple
// of 7.
func runChunked(src trace.Source, cfg Config) (Result, error) {
	q, err := chunk.Build(src, 0, 7)
	if err != nil {
		return Result{}, err
	}
	c := chunk.NewCursor(q, q.Len())
	res, err := Run(c, cfg)
	if err == nil {
		err = c.Err()
	}
	return res, err
}

// TestRunMatchesOracle requires the one-pass engine to reproduce the
// cycle-stepped oracle on every workload, at the paper's fetch widths plus
// width 1, with no value prediction, three real predictors and the perfect
// one.
func TestRunMatchesOracle(t *testing.T) {
	n := 1_000
	if testing.Short() {
		n = 300
	}
	preds := []struct {
		name   string
		oracle bool
		new    func() predictor.Predictor
	}{
		{name: "none"},
		{name: "classified-stride", new: func() predictor.Predictor { return predictor.NewClassifiedStride() }},
		{name: "stride", new: func() predictor.Predictor { return predictor.NewStride() }},
		{name: "classified-fcm", new: func() predictor.Predictor { return predictor.NewClassifiedFCM(2) }},
		{name: "oracle", oracle: true},
	}
	for _, name := range workload.Names() {
		recs := workload.MustTrace(name, 1, n)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, w := range []int{1, 4, 8, 16, 32, 40} {
				for _, p := range preds {
					cfg := DefaultConfig(w)
					cfg.OracleVP = p.oracle
					compare(t, name+"/"+p.name, recs, cfg, p.new)
				}
			}
		})
	}
}

// FuzzRunMatchesOracle feeds random traces through both engines: loads and
// stores on four addresses, ALU operations and branches on four registers
// (x0 among them), values from a small set so that the stride predictor is
// sometimes right, and a random fetch width, window size and predictor.
// The stride predictor without a classifier consumes many mispredictions.
// The penalty argument and mode's low bit choose nothing; they stay so
// that the committed corpus still decodes.
func FuzzRunMatchesOracle(f *testing.F) {
	f.Add([]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99}, uint8(4), uint8(8), uint8(0), uint8(1))
	f.Add([]byte("a long chain of dependent records with stores and loads"), uint8(1), uint8(2), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, width, window, _, mode uint8) {
		ops := []isa.Opcode{isa.ADD, isa.ADDI, isa.LI, isa.LD, isa.SD, isa.BEQ, isa.NOP}
		regs := []isa.Reg{isa.Zero, isa.T0, isa.T1, isa.T2}
		var recs []trace.Rec
		for i := 0; i+1 < len(data) && len(recs) < 512; i += 2 {
			a, b := data[i], data[i+1]
			recs = append(recs, trace.Rec{
				Seq: uint64(len(recs)), PC: isa.PCOf(int(a % 8)), Op: ops[int(a>>3)%len(ops)],
				Rd: regs[b&3], Rs1: regs[b>>2&3], Rs2: regs[b>>4&3],
				Val: uint64(b >> 6), Addr: uint64(a>>6) * 8,
			})
		}
		cfg := DefaultConfig(1 + int(width%40))
		cfg.WindowSize = 1 + int(window%48)
		var newPred func() predictor.Predictor
		switch (mode >> 1) % 4 {
		case 1:
			newPred = func() predictor.Predictor { return predictor.NewStride() }
		case 2:
			newPred = func() predictor.Predictor { return predictor.NewClassifiedStride() }
		case 3:
			cfg.OracleVP = true
		}
		compare(t, "fuzz", recs, cfg, newPred)
	})
}

package ideal

import (
	"testing"

	"valuepred/internal/isa"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// fig32 builds the Figure 3.2 example: eight instructions with arcs
// 1→2(1), 2→4(2), 1→5(4), 3→7(4), 5→6(1), 7→8(1).
func fig32() []trace.Rec {
	mk := func(seq uint64, rd, rs1 isa.Reg) trace.Rec {
		op := isa.ADDI
		if rs1 == 0 {
			op = isa.LI
		}
		return trace.Rec{Seq: seq, PC: isa.PCOf(int(seq)), Op: op, Rd: rd, Rs1: rs1, Val: seq + 1}
	}
	return []trace.Rec{
		mk(0, isa.T0, 0),
		mk(1, isa.T1, isa.T0),
		mk(2, isa.T2, 0),
		mk(3, isa.T3, isa.T1),
		mk(4, isa.T4, isa.T0),
		mk(5, isa.T5, isa.T4),
		mk(6, isa.T6, isa.T2),
		mk(7, isa.S0, isa.T6),
	}
}

// TestTable32Example verifies the paper's pipeline walk-through: on a
// 4-wide machine with a perfect value predictor, instructions 1-4 execute
// in cycle 3 and instructions 5-8 in cycle 4.
func TestTable32Example(t *testing.T) {
	exec := make(map[uint64]uint64)
	cfg := DefaultConfig(4)
	cfg.OracleVP = true
	cfg.Observer = func(seq, fetch, ex uint64) { exec[seq] = ex }
	res, err := Run(trace.NewSliceSource(fig32()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 8 {
		t.Fatalf("insts = %d", res.Insts)
	}
	for seq := uint64(0); seq < 4; seq++ {
		if exec[seq] != 3 {
			t.Errorf("inst %d executed at cycle %d, want 3", seq+1, exec[seq])
		}
	}
	for seq := uint64(4); seq < 8; seq++ {
		if exec[seq] != 4 {
			t.Errorf("inst %d executed at cycle %d, want 4", seq+1, exec[seq])
		}
	}
}

// TestTable32WithoutVP: without value prediction, instructions 6 and 8
// must wait one extra cycle for 5 and 7.
func TestTable32WithoutVP(t *testing.T) {
	exec := make(map[uint64]uint64)
	cfg := DefaultConfig(4)
	cfg.Observer = func(seq, fetch, ex uint64) { exec[seq] = ex }
	if _, err := Run(trace.NewSliceSource(fig32()), cfg); err != nil {
		t.Fatal(err)
	}
	// 2 depends on 1 (same fetch group): executes at 4; 4 depends on 2: 5.
	want := map[uint64]uint64{0: 3, 1: 4, 2: 3, 3: 5, 4: 4, 5: 5, 6: 4, 7: 5}
	for seq, w := range want {
		if exec[seq] != w {
			t.Errorf("inst %d executed at %d, want %d", seq+1, exec[seq], w)
		}
	}
}

// TestUselessPredictionAccounting: with fetch width 1, a DID-4 dependence
// is resolved by fetch delay, so a correct prediction must be counted
// useless; with width 8 the same prediction becomes useful.
func TestUselessPredictionAccounting(t *testing.T) {
	// Producer at seq 0, consumer at seq 4 (DID 4); filler in between.
	var recs []trace.Rec
	recs = append(recs, trace.Rec{Seq: 0, PC: 0x1000, Op: isa.LI, Rd: isa.T0, Val: 7})
	for i := 1; i <= 3; i++ {
		recs = append(recs, trace.Rec{Seq: uint64(i), PC: isa.PCOf(i), Op: isa.LI, Rd: isa.T1, Val: 1})
	}
	recs = append(recs, trace.Rec{Seq: 4, PC: 0x2000, Op: isa.ADDI, Rd: isa.T2, Rs1: isa.T0, Val: 8})

	run := func(width int) Result {
		cfg := DefaultConfig(width)
		cfg.OracleVP = true
		res, err := Run(trace.NewSliceSource(recs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	narrow := run(1)
	if narrow.Used != 0 {
		t.Errorf("width 1: %d used predictions, want 0 (operand ready anyway)", narrow.Used)
	}
	if narrow.Useless() != narrow.Correct {
		t.Errorf("width 1: useless = %d, correct = %d", narrow.Useless(), narrow.Correct)
	}
	wide := run(8)
	if wide.Used == 0 {
		t.Error("width 8: prediction of t0 should have been useful")
	}
}

func TestWindowLimitsFetch(t *testing.T) {
	// A long serial chain: with window W the machine can hold at most W
	// unexecuted instructions, and the chain executes one per cycle, so
	// IPC ~= 1 regardless of fetch width.
	recs := make([]trace.Rec, 2000)
	for i := range recs {
		recs[i] = trace.Rec{Seq: uint64(i), PC: isa.PCOf(i % 8), Op: isa.ADDI,
			Rd: isa.T0, Rs1: isa.T0, Val: uint64(i)}
	}
	cfg := DefaultConfig(40)
	res, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res.IPC(); ipc > 1.1 {
		t.Errorf("serial chain IPC = %.2f, want ~1", ipc)
	}
	// With value prediction the chain is fully parallel: IPC ~= width
	// (window permitting).
	cfg.Predictor = predictor.NewClassifiedStride()
	vp, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vp.IPC() < 10 {
		t.Errorf("predicted chain IPC = %.2f, want >> 1", vp.IPC())
	}
}

func TestSpeedupMonotoneInWidth(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 40_000)
	var prev float64 = -1
	for _, w := range []int{4, 8, 16, 32} {
		base, err := Run(trace.NewSliceSource(recs), DefaultConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(w)
		cfg.Predictor = predictor.NewClassifiedStride()
		vp, err := Run(trace.NewSliceSource(recs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := Speedup(base, vp)
		if s < prev-2 { // allow small noise
			t.Errorf("speedup at width %d = %.1f%% dropped below %.1f%%", w, s, prev)
		}
		if s > prev {
			prev = s
		}
	}
	if prev < 20 {
		t.Errorf("vortex speedup at width 32 = %.1f%%, expected substantial", prev)
	}
}

// TestMemoryDependencyEnforced: a load waits for the latest store to its
// address, here at the end of a 10-deep chain, and so executes after it.
func TestMemoryDependencyEnforced(t *testing.T) {
	var recs []trace.Rec
	for i := 0; i < 10; i++ {
		recs = append(recs, trace.Rec{Seq: uint64(i), PC: isa.PCOf(i), Op: isa.ADDI,
			Rd: isa.T0, Rs1: isa.T0, Val: uint64(i)})
	}
	recs = append(recs,
		trace.Rec{Seq: 10, PC: isa.PCOf(10), Op: isa.SD, Rs1: isa.SP, Rs2: isa.T0, Addr: 8, Val: 9},
		trace.Rec{Seq: 11, PC: isa.PCOf(11), Op: isa.LD, Rd: isa.T1, Rs1: isa.SP, Addr: 8, Val: 9},
	)
	exec := make(map[uint64]uint64)
	cfg := DefaultConfig(40)
	cfg.Observer = func(seq, fetch, ex uint64) { exec[seq] = ex }
	if _, err := Run(trace.NewSliceSource(recs), cfg); err != nil {
		t.Fatal(err)
	}
	if exec[11] != exec[10]+1 {
		t.Errorf("load executed at cycle %d, its store at %d", exec[11], exec[10])
	}
}

// mispredictedChain is a 400-record trace of 200 producer/consumer pairs:
// a chain of XORs with pseudo-random values, each read by one ADDI. A
// predictor without a classifier mispredicts the XORs and its consumers
// consume the wrong values.
func mispredictedChain() []trace.Rec {
	recs := make([]trace.Rec, 0, 400)
	noise := uint64(12345)
	for i := 0; i < 200; i++ {
		noise = noise*6364136223846793005 + 1442695040888963407
		recs = append(recs,
			trace.Rec{Seq: uint64(2 * i), PC: 0x1000, Op: isa.XOR, Rd: isa.T0, Rs1: isa.T0, Val: noise},
			trace.Rec{Seq: uint64(2*i + 1), PC: 0x1004, Op: isa.ADDI, Rd: isa.T1, Rs1: isa.T0, Val: noise + 1},
		)
	}
	return recs
}

// TestMispredictPenalty: the consumer of a wrong value reschedules at once
// (Section 3), so a predictor that is always confident and never right
// costs no cycle over no prediction at all.
func TestMispredictPenalty(t *testing.T) {
	recs := mispredictedChain()
	cfg := DefaultConfig(8)
	base, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predictor = predictor.NewStride()
	vp, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vp.Attempted == 0 || vp.Correct != 0 {
		t.Fatalf("want only wrong predictions, got %+v", vp)
	}
	if vp.Cycles != base.Cycles {
		t.Errorf("%d cycles with consumed mispredictions, %d without prediction", vp.Cycles, base.Cycles)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := Run(trace.NewSliceSource(nil), Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := Run(trace.NewSliceSource(nil), Config{FetchWidth: 4}); err == nil {
		t.Error("zero window accepted")
	}
}

// TestOutcomesMismatch requires Run to reject, with an error rather than a
// panic, a recorded outcome stream of a different trace length (shorter
// or longer) and one set together with a live Predictor; the stream of
// the trace itself is accepted.
func TestOutcomesMismatch(t *testing.T) {
	recs := workload.MustTrace("compress95", 1, 1_000)
	record := func(n int) *predictor.Outcomes {
		o, _ := predictor.RecordOutcomes(predictor.NewClassifiedStride(), trace.NewSliceSource(recs[:n]))
		return o
	}
	for _, n := range []int{0, 1, 999, 1_000} {
		cfg := DefaultConfig(8)
		cfg.Outcomes = record(n)
		_, err := Run(trace.NewSliceSource(recs), cfg)
		if n == len(recs) && err != nil {
			t.Errorf("stream of the trace rejected: %v", err)
		}
		if n != len(recs) && err == nil {
			t.Errorf("stream of %d records accepted for a %d-record trace", n, len(recs))
		}
	}
	cfg := DefaultConfig(8)
	cfg.Outcomes = record(len(recs) / 2)
	if _, err := Run(trace.NewSliceSource(recs[:len(recs)/4]), cfg); err == nil {
		t.Error("stream longer than the trace accepted")
	}
	cfg = DefaultConfig(8)
	cfg.Outcomes, cfg.Predictor = record(len(recs)), predictor.NewStride()
	if _, err := Run(trace.NewSliceSource(recs), cfg); err == nil {
		t.Error("both Predictor and Outcomes accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := Run(trace.NewSliceSource(nil), DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 0 {
		t.Errorf("insts = %d", res.Insts)
	}
	if res.IPC() != 0 {
		t.Error("IPC of empty run must be 0")
	}
}

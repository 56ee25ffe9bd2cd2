package pipeline

import (
	"testing"

	"valuepred/internal/btb"
	"valuepred/internal/core"
	"valuepred/internal/fetch"
	"valuepred/internal/ideal"
	"valuepred/internal/isa"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

func TestInvalidConfigs(t *testing.T) {
	recs := workload.MustTrace("compress95", 1, 1000)
	if _, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultConfig()
	cfg.Predictor = predictor.NewStride()
	cfg.Network = core.MustNew(core.DefaultConfig())
	if _, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg); err == nil {
		t.Error("both Predictor and Network accepted")
	}
	// A negative penalty would wrap in the uint64 cycle arithmetic and let
	// consumers run ahead of their producers.
	for _, neg := range []func(*Config){
		func(c *Config) { c.BranchPenalty = -1 },
		func(c *Config) { c.ValuePenalty = -1 },
	} {
		cfg := DefaultConfig()
		neg(&cfg)
		if _, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg); err == nil {
			t.Errorf("negative penalty accepted: %+v", cfg)
		}
	}
	// The value penalty and the load latency set the span of the clock's
	// ring, so each is bounded; the bound itself is accepted.
	for _, set := range []func(*Config, int){
		func(c *Config, v int) { c.ValuePenalty = v },
		func(c *Config, v int) { c.LoadLatency = v },
	} {
		cfg := DefaultConfig()
		set(&cfg, maxLatency+1)
		if _, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg); err == nil {
			t.Errorf("value above %d accepted: %+v", maxLatency, cfg)
		}
		cfg = DefaultConfig()
		set(&cfg, maxLatency)
		if _, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg); err != nil {
			t.Errorf("value %d rejected: %v", maxLatency, err)
		}
	}
}

// TestOutcomesMismatch requires Run to reject, with an error rather than a
// panic, a recorded outcome stream whose length differs from the trace the
// fetch engine delivers, and one set together with a Predictor or a
// Network; the stream of the trace itself is accepted.
func TestOutcomesMismatch(t *testing.T) {
	recs := workload.MustTrace("compress95", 1, 1_000)
	record := func(n int) *predictor.Outcomes {
		o, _ := predictor.RecordOutcomes(predictor.NewClassifiedStride(), trace.NewSliceSource(recs[:n]))
		return o
	}
	for _, n := range []int{0, 1, 999, 1_000} {
		cfg := DefaultConfig()
		cfg.Outcomes = record(n)
		_, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), cfg)
		if n == len(recs) && err != nil {
			t.Errorf("stream of the trace rejected: %v", err)
		}
		if n != len(recs) && err == nil {
			t.Errorf("stream of %d records accepted for a %d-record trace", n, len(recs))
		}
	}
	cfg := DefaultConfig()
	cfg.Outcomes = record(len(recs))
	if _, err := Run(fetch.NewSequential(recs[:len(recs)/2], btb.NewPerfect(), 4), cfg); err == nil {
		t.Error("stream longer than the trace accepted")
	}
	for _, set := range []func(*Config){
		func(c *Config) { c.Predictor = predictor.NewStride() },
		func(c *Config) { c.Network = core.MustNew(core.DefaultConfig()) },
	} {
		cfg := DefaultConfig()
		cfg.Outcomes = record(len(recs))
		set(&cfg)
		if _, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), cfg); err == nil {
			t.Errorf("Outcomes accepted together with a Predictor or Network: %+v", cfg)
		}
	}
}

// TestVPNeverHurtsWithDefaultPenalty: with the default reschedule model a
// consumed misprediction costs exactly the normal dependence wait, so value
// prediction can only reduce cycles.
func TestVPNeverHurtsWithDefaultPenalty(t *testing.T) {
	for _, name := range workload.Names() {
		recs := workload.MustTrace(name, 1, 25_000)
		base, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Predictor = predictor.NewClassifiedStride()
		vp, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if vp.Cycles > base.Cycles {
			t.Errorf("%s: VP increased cycles %d -> %d", name, base.Cycles, vp.Cycles)
		}
	}
}

// TestFetchBandwidthMonotone: raising the taken-branch limit can only help
// the baseline machine.
func TestFetchBandwidthMonotone(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 30_000)
	var prev float64
	for _, n := range []int{1, 2, 4, -1} {
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), n), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.IPC() < prev-0.01 {
			t.Errorf("IPC at n=%d (%.3f) below previous (%.3f)", n, res.IPC(), prev)
		}
		if res.IPC() > prev {
			prev = res.IPC()
		}
	}
}

// TestBranchPenaltyCosts: a larger redirect bubble must not speed the
// machine up.
func TestBranchPenaltyCosts(t *testing.T) {
	recs := workload.MustTrace("go", 1, 30_000)
	run := func(pen int) uint64 {
		cfg := DefaultConfig()
		cfg.BranchPenalty = pen
		res, err := Run(fetch.NewSequential(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c0, c3, c10 := run(0), run(3), run(10)
	if !(c0 <= c3 && c3 <= c10) {
		t.Errorf("cycles not monotone in branch penalty: %d, %d, %d", c0, c3, c10)
	}
	if c10 == c0 {
		t.Error("branch penalty has no effect on a mispredicting workload")
	}
}

// TestValuePenaltyCosts: charging more for consumed mispredictions cannot
// reduce cycles.
func TestValuePenaltyCosts(t *testing.T) {
	recs := workload.MustTrace("go", 1, 30_000)
	run := func(pen int) uint64 {
		cfg := DefaultConfig()
		cfg.ValuePenalty = pen
		cfg.Predictor = predictor.NewStride() // unclassified: consumes wrong values
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if run(4) < run(0) {
		t.Error("value penalty reduced cycles")
	}
}

// TestBTBQualityMatters: the perfect branch predictor must beat the cold
// 2-level BTB on a branchy workload.
func TestBTBQualityMatters(t *testing.T) {
	recs := workload.MustTrace("li", 1, 30_000)
	perfect, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	real, err := Run(fetch.NewSequential(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if real.IPC() >= perfect.IPC() {
		t.Errorf("2-level BTB (%.2f IPC) not worse than perfect (%.2f IPC)",
			real.IPC(), perfect.IPC())
	}
	if real.Fetch.BranchAccuracy() >= 1 {
		t.Error("2-level BTB reported perfect accuracy")
	}
}

// TestWindowSemantics: ROB-style windows (held to commit) cannot beat
// scheduling windows of the same size.
func TestWindowSemantics(t *testing.T) {
	recs := workload.MustTrace("m88ksim", 1, 30_000)
	sched, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldUntilCommit = true
	rob, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rob.IPC() > sched.IPC()+0.01 {
		t.Errorf("ROB window IPC %.2f exceeds scheduling window %.2f", rob.IPC(), sched.IPC())
	}
	if rob.Insts != sched.Insts {
		t.Errorf("instruction counts differ: %d vs %d", rob.Insts, sched.Insts)
	}
}

// TestNetworkMatchesDirectWhenUnconstrained: with many banks and ports the
// network's speedup must be close to the direct predictor's (the remaining
// difference is the group-at-once lookup semantics).
func TestNetworkMatchesDirectWhenUnconstrained(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 40_000)
	mk := func() fetch.Engine {
		return fetch.NewTraceCache(recs, btb.NewPerfect(), fetch.DefaultTCConfig())
	}
	base, err := Run(mk(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	direct := DefaultConfig()
	direct.Predictor = predictor.NewClassifiedStride()
	dres, err := Run(mk(), direct)
	if err != nil {
		t.Fatal(err)
	}
	netCfg := core.DefaultConfig()
	netCfg.Banks = 1024
	netCfg.PortsPerBank = 64
	netted := DefaultConfig()
	netted.Network = core.MustNew(netCfg)
	nres, err := Run(mk(), netted)
	if err != nil {
		t.Fatal(err)
	}
	ds, ns := Speedup(base, dres), Speedup(base, nres)
	if diff := ds - ns; diff > 15 || diff < -15 {
		t.Errorf("network speedup %.1f%% far from direct %.1f%%", ns, ds)
	}
	if nres.Insts != dres.Insts {
		t.Error("retired instruction counts differ")
	}
}

// TestNetworkDenialsReduceSpeedup: a single-banked network must not beat a
// plentiful one.
func TestNetworkDenialsReduceSpeedup(t *testing.T) {
	recs := workload.MustTrace("compress95", 1, 40_000)
	mk := func() fetch.Engine {
		return fetch.NewTraceCache(recs, btb.NewPerfect(), fetch.DefaultTCConfig())
	}
	base, err := Run(mk(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	speedupWith := func(banks int) (float64, core.Stats) {
		netCfg := core.DefaultConfig()
		netCfg.Banks = banks
		net := core.MustNew(netCfg)
		cfg := DefaultConfig()
		cfg.Network = net
		res, err := Run(mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Speedup(base, res), net.Stats()
	}
	s1, st1 := speedupWith(1)
	s16, st16 := speedupWith(16)
	if s1 > s16+1 {
		t.Errorf("1 bank (%.1f%%) beats 16 banks (%.1f%%)", s1, s16)
	}
	if st1.DenyRate() <= st16.DenyRate() {
		t.Errorf("deny rate did not fall with banks: %.2f vs %.2f",
			st1.DenyRate(), st16.DenyRate())
	}
}

// TestUsefulnessAccounting: prediction decouples consumers on m88ksim at
// unlimited fetch. Used <= Correct <= Attempted is an invariant
// (invariants_test.go).
func TestUsefulnessAccounting(t *testing.T) {
	recs := workload.MustTrace("m88ksim", 1, 30_000)
	cfg := DefaultConfig()
	cfg.Predictor = predictor.NewClassifiedStride()
	res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Used == 0 {
		t.Error("no useful predictions on m88ksim at unlimited fetch")
	}
	if res.Useless() != res.Correct-res.Used {
		t.Error("Useless identity broken")
	}
}

// TestStallAccounting checks the front-end stall statistics; their upper
// bounds are invariants (invariants_test.go).
func TestStallAccounting(t *testing.T) {
	recs := workload.MustTrace("gcc", 1, 30_000)
	res, err := Run(fetch.NewSequential(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BranchStallCycles == 0 {
		t.Error("mispredicting run reported zero branch-stall cycles")
	}
	if occ := res.AvgOccupancy(); occ <= 0 {
		t.Errorf("average occupancy = %.1f, want > 0", occ)
	}
	// A perfect-BTB run must have no branch stalls.
	clean, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if clean.BranchStallCycles != 0 {
		t.Errorf("perfect BTB run has %d branch-stall cycles", clean.BranchStallCycles)
	}
}

// TestConvergesToIdealModel is a cross-model validation: with a perfect
// BTB, unlimited taken branches and the same predictor, the Section 5
// machine reduces to the Section 3 ideal machine at width 40 (same window,
// same dependence rules; 40 FUs never bind because the window holds only
// 40 instructions). IPCs must agree tightly.
func TestConvergesToIdealModel(t *testing.T) {
	for _, name := range []string{"compress95", "m88ksim", "li"} {
		recs := workload.MustTrace(name, 1, 40_000)
		pres, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ires, err := ideal.Run(trace.NewSliceSource(recs), ideal.DefaultConfig(40))
		if err != nil {
			t.Fatal(err)
		}
		ratio := pres.IPC() / ires.IPC()
		if ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%s: pipeline IPC %.3f vs ideal IPC %.3f (ratio %.3f)",
				name, pres.IPC(), ires.IPC(), ratio)
		}
		// And with value prediction.
		cfgP := DefaultConfig()
		cfgP.Predictor = predictor.NewClassifiedStride()
		pvp, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfgP)
		if err != nil {
			t.Fatal(err)
		}
		cfgI := ideal.DefaultConfig(40)
		cfgI.Predictor = predictor.NewClassifiedStride()
		ivp, err := ideal.Run(trace.NewSliceSource(recs), cfgI)
		if err != nil {
			t.Fatal(err)
		}
		ratio = pvp.IPC() / ivp.IPC()
		if ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%s (VP): pipeline IPC %.3f vs ideal IPC %.3f (ratio %.3f)",
				name, pvp.IPC(), ivp.IPC(), ratio)
		}
	}
}

// TestLoadLatency: non-unit load latency must reduce baseline IPC; value
// prediction must still deliver a substantial gain (consumers of correctly
// predicted loads decouple from the memory pipeline).
func TestLoadLatency(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 60_000)
	run := func(lat int, vp bool) Result {
		cfg := DefaultConfig()
		cfg.LoadLatency = lat
		if vp {
			cfg.Predictor = predictor.NewClassifiedStride()
		}
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base1, base4 := run(1, false), run(4, false)
	if base4.IPC() >= base1.IPC() {
		t.Errorf("4-cycle loads did not slow the baseline: %.2f vs %.2f",
			base4.IPC(), base1.IPC())
	}
	s4 := Speedup(base4, run(4, true))
	if s4 < 20 {
		t.Errorf("VP speedup at lat=4 = %.1f%%; prediction should still decouple load consumers", s4)
	}
	// Absolute cycle savings stay in the same ballpark across latencies:
	// with a 40-entry window the savings are bounded by fetch/window
	// pressure, not by the dependence latency — the paper's bandwidth
	// lesson resurfacing. Guard against either collapse or runaway.
	vp1, vp4 := run(1, true), run(4, true)
	saved1 := float64(base1.Cycles - vp1.Cycles)
	saved4 := float64(base4.Cycles - vp4.Cycles)
	if saved4 < 0.5*saved1 || saved4 > 2*saved1 {
		t.Errorf("cycle savings moved implausibly with latency: %.0f vs %.0f", saved4, saved1)
	}
}

// TestDivLatency: multiplies, divides and remainders keep the paper's
// unit latency whatever the load latency: a chain of them, each reading
// the previous result, executes one per cycle, as a chain of ADDs does.
func TestDivLatency(t *testing.T) {
	cycles := func(ops ...isa.Opcode) uint64 {
		var recs []trace.Rec
		for i := 0; i < 300; i++ {
			recs = append(recs, trace.Rec{Seq: uint64(i), PC: isa.PCOf(i), Op: ops[i%len(ops)],
				Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		}
		cfg := DefaultConfig()
		cfg.LoadLatency = 8
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if got, want := cycles(isa.MUL, isa.DIV, isa.REM), cycles(isa.ADD); got != want {
		t.Errorf("MUL/DIV/REM chain took %d cycles, an ADD chain %d", got, want)
	}
}

// TestConsumerWaitsForMultiCycleResult: a consumer fetched after its
// producer executed must still wait for a multi-cycle result. With a
// one-entry window the load leaves at execute (cycle 3) and the ADD is
// fetched in that same cycle, but the load's value only arrives at 3+4.
func TestConsumerWaitsForMultiCycleResult(t *testing.T) {
	recs := []trace.Rec{
		{Seq: 0, PC: isa.PCOf(0), Op: isa.LD, Rd: isa.T0, Rs1: isa.Zero, Addr: 64},
		{Seq: 1, PC: isa.PCOf(1), Op: isa.ADD, Rd: isa.T1, Rs1: isa.T0, Rs2: isa.T0},
	}
	cfg := DefaultConfig()
	cfg.Width, cfg.WindowSize, cfg.LoadLatency = 1, 1, 4
	for _, e := range []struct {
		name string
		run  engineFunc
	}{{"Run", Run}, {"oracle", oracleRun}} {
		res, err := e.run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != 7 {
			t.Errorf("%s: %d cycles, want 7: the ADD executes when the load's value arrives", e.name, res.Cycles)
		}
	}
}

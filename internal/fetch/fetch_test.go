package fetch

import (
	"testing"

	"valuepred/internal/asm"
	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/emu"
	"valuepred/internal/isa"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// loopTrace builds a trace of a counted loop: body instructions plus a
// taken backward branch per iteration, ending with a not-taken exit.
func loopTrace(t *testing.T, iters, bodyLen int) []trace.Rec {
	t.Helper()
	b := asm.NewBuilder()
	b.Li(isa.S0, int64(iters))
	b.Label("loop")
	for i := 0; i < bodyLen; i++ {
		b.Addi(isa.T0, isa.T0, 1)
	}
	b.Addi(isa.S1, isa.S1, 1)
	b.Blt(isa.S1, isa.S0, "loop")
	b.Halt()
	m := emu.New(asm.MustAssemble(b))
	recs := m.Run(0)
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	return recs
}

func drain(t *testing.T, e Engine, maxInsts int) []Group {
	t.Helper()
	var groups []Group
	for {
		g, ok := e.NextGroup(maxInsts)
		if !ok {
			return groups
		}
		groups = append(groups, g)
		if len(groups) > 1_000_000 {
			t.Fatal("fetch engine never terminates")
		}
	}
}

func TestSequentialRespectsMaxInsts(t *testing.T) {
	recs := loopTrace(t, 10, 20)
	e := NewSequential(recs, btb.NewPerfect(), -1)
	var total int
	for _, g := range drain(t, e, 7) {
		if len(g.Recs) > 7 {
			t.Fatalf("group of %d exceeds max 7", len(g.Recs))
		}
		total += len(g.Recs)
	}
	if total != len(recs) {
		t.Errorf("delivered %d of %d", total, len(recs))
	}
}

func TestSequentialTakenBranchLimit(t *testing.T) {
	recs := loopTrace(t, 50, 3) // iteration = 4 insts + taken branch
	for _, n := range []int{1, 2, 3} {
		e := NewSequential(recs, btb.NewPerfect(), n)
		for _, g := range drain(t, e, 400) {
			taken := 0
			for _, r := range g.Recs {
				if r.Op.IsControl() && r.Taken {
					taken++
				}
			}
			if taken > n {
				t.Fatalf("n=%d: group contains %d taken branches", n, taken)
			}
		}
	}
	// Unlimited: with a huge width everything can arrive in one group
	// under a perfect predictor.
	e := NewSequential(recs, btb.NewPerfect(), -1)
	g, _ := e.NextGroup(1 << 20)
	if len(g.Recs) != len(recs) {
		t.Errorf("unlimited fetch delivered %d of %d", len(g.Recs), len(recs))
	}
}

func TestSequentialGroupsAreProgramOrder(t *testing.T) {
	recs := loopTrace(t, 20, 5)
	e := NewSequential(recs, btb.NewPerfect(), 2)
	var seq uint64
	for _, g := range drain(t, e, 16) {
		for _, r := range g.Recs {
			if r.Seq != seq {
				t.Fatalf("out of order: got seq %d, want %d", r.Seq, seq)
			}
			seq++
		}
	}
}

func TestSequentialMispredictTruncates(t *testing.T) {
	recs := loopTrace(t, 30, 2)
	// A cold 2-level BTB mispredicts the first taken encounter of the loop
	// branch; the group must end exactly at that branch.
	e := NewSequential(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), -1)
	g, _ := e.NextGroup(1 << 20)
	if !g.Mispredict {
		t.Fatal("cold BTB did not mispredict")
	}
	last := g.Recs[len(g.Recs)-1]
	if !last.Op.IsControl() {
		t.Error("mispredicted group does not end at a control instruction")
	}
	st := e.Stats()
	if st.Mispredicts == 0 || st.Predictions == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BranchAccuracy() >= 1 {
		t.Error("accuracy must drop below 1 after a mispredict")
	}
}

func TestBranchAccuracyZeroSample(t *testing.T) {
	// A branch-free stream makes zero predictions; its accuracy is a
	// vacuous 100%, not 0% (which would drag averaged accuracy columns
	// down for straight-line traces).
	if got := (Stats{}).BranchAccuracy(); got != 1 {
		t.Errorf("zero-sample BranchAccuracy = %v, want 1", got)
	}
	b := asm.NewBuilder()
	for i := 0; i < 40; i++ {
		b.Addi(isa.T0, isa.T0, 1)
	}
	b.Halt()
	m := emu.New(asm.MustAssemble(b))
	recs := m.Run(0)
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	e := NewSequential(recs[:len(recs)-1], btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), 1)
	drain(t, e, 8)
	st := e.Stats()
	if st.Predictions != 0 {
		t.Fatalf("straight-line trace made %d predictions", st.Predictions)
	}
	if got := st.BranchAccuracy(); got != 1 {
		t.Errorf("branch-free trace BranchAccuracy = %v, want 1", got)
	}
	// The zero-sample trace-cache hit rate stays 0 (no lookups, no benefit).
	if got := st.TCHitRate(); got != 0 {
		t.Errorf("zero-sample TCHitRate = %v, want 0", got)
	}
}

func TestRASPredictsReturns(t *testing.T) {
	// call/return pairs: with a completely cold BTB, the RAS must still
	// predict every return correctly.
	b := asm.NewBuilder()
	b.Li(isa.S0, 30)
	b.Label("loop")
	b.Call("f")
	b.Call("g")
	b.Addi(isa.S1, isa.S1, 1)
	b.Blt(isa.S1, isa.S0, "loop")
	b.Halt()
	b.Label("f")
	b.Addi(isa.T0, isa.T0, 1)
	b.Ret()
	b.Label("g")
	b.Addi(isa.T1, isa.T1, 1)
	b.Ret()
	m := emu.New(asm.MustAssemble(b))
	recs := m.Run(0)

	e := NewSequential(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), -1)
	for _, g := range drain(t, e, 64) {
		if g.Mispredict {
			last := g.Recs[len(g.Recs)-1]
			if isReturn(last) {
				t.Fatalf("RAS failed to predict return at seq %d", last.Seq)
			}
		}
	}
}

func TestTraceCacheLearnsLoop(t *testing.T) {
	recs := loopTrace(t, 200, 6) // 8 insts per iteration
	e := NewTraceCache(recs, btb.NewPerfect(), DefaultTCConfig())
	groups := drain(t, e, 40)
	var total int
	sawHit := false
	for _, g := range groups {
		total += len(g.Recs)
		if g.FromTraceCache {
			sawHit = true
		}
	}
	if total != len(recs) {
		t.Fatalf("delivered %d of %d", total, len(recs))
	}
	if !sawHit {
		t.Fatal("trace cache never hit on a tight loop")
	}
	st := e.Stats()
	if st.TCHitRate() < 0.5 {
		t.Errorf("hit rate on a tight loop = %.2f", st.TCHitRate())
	}
	if st.TCHitInsts+st.CoreInsts != st.Insts {
		t.Errorf("instruction accounting broken: %+v", st)
	}
}

// TestTraceCacheCrossesTakenBranches is the point of the trace cache: a hit
// group may span multiple taken branches (loop iterations) in one cycle.
func TestTraceCacheCrossesTakenBranches(t *testing.T) {
	recs := loopTrace(t, 300, 2) // 4-inst iterations: a 32-inst line = 8 iterations
	e := NewTraceCache(recs, btb.NewPerfect(), DefaultTCConfig())
	sawMulti := false
	for _, g := range drain(t, e, 40) {
		if !g.FromTraceCache {
			continue
		}
		taken := 0
		for _, r := range g.Recs {
			if r.Op.IsControl() && r.Taken {
				taken++
			}
		}
		if taken > 1 {
			sawMulti = true
		}
	}
	if !sawMulti {
		t.Error("no trace-cache group crossed more than one taken branch")
	}
}

func TestTraceCacheLineLimits(t *testing.T) {
	recs := loopTrace(t, 400, 1)
	e := NewTraceCache(recs, btb.NewPerfect(), DefaultTCConfig())
	for _, g := range drain(t, e, 1<<20) {
		if !g.FromTraceCache {
			continue
		}
		if len(g.Recs) > tcMaxLineInsts {
			t.Fatalf("line of %d insts exceeds max %d", len(g.Recs), tcMaxLineInsts)
		}
		controls := 0
		for _, r := range g.Recs {
			if r.Op.IsControl() {
				controls++
			}
		}
		if controls > tcMaxLineBlocks {
			t.Fatalf("line with %d blocks exceeds max %d", controls, tcMaxLineBlocks)
		}
	}
}

func TestTraceCacheOutcomeMismatchIsMiss(t *testing.T) {
	// A branch alternating each iteration: a line recorded with one
	// outcome must not hit when the predictor (perfect here) knows the
	// next outcome differs. We check the invariant that delivered groups
	// are always on the correct path.
	b := asm.NewBuilder()
	b.Li(isa.S0, 400)
	b.Label("loop")
	b.Andi(isa.T1, isa.S1, 1)
	b.Beqz(isa.T1, "even")
	b.Addi(isa.T2, isa.T2, 7)
	b.J("join")
	b.Label("even")
	b.Addi(isa.T3, isa.T3, 3)
	b.Label("join")
	b.Addi(isa.S1, isa.S1, 1)
	b.Blt(isa.S1, isa.S0, "loop")
	b.Halt()
	m := emu.New(asm.MustAssemble(b))
	recs := m.Run(0)
	e := NewTraceCache(recs, btb.NewPerfect(), DefaultTCConfig())
	var seq uint64
	for _, g := range drain(t, e, 40) {
		if g.Mispredict {
			t.Fatal("perfect predictor produced a mispredict")
		}
		for _, r := range g.Recs {
			if r.Seq != seq {
				t.Fatalf("wrong-path delivery at seq %d (want %d)", r.Seq, seq)
			}
			seq++
		}
	}
	if seq != uint64(len(recs)) {
		t.Errorf("delivered %d of %d", seq, len(recs))
	}
}

func TestTraceCacheWithRealBTBStaysOnPath(t *testing.T) {
	recs := workload.MustTrace("gcc", 1, 30_000)
	e := NewTraceCache(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), DefaultTCConfig())
	var seq uint64
	for _, g := range drain(t, e, 40) {
		for _, r := range g.Recs {
			if r.Seq != seq {
				t.Fatalf("wrong-path delivery at seq %d (want %d)", r.Seq, seq)
			}
			seq++
		}
		if g.Mispredict {
			last := g.Recs[len(g.Recs)-1]
			if !last.Op.IsControl() {
				t.Fatal("mispredict flag on a non-control tail")
			}
		}
	}
	if seq != uint64(len(recs)) {
		t.Errorf("delivered %d of %d", seq, len(recs))
	}
}

func TestEnginesEOF(t *testing.T) {
	seqEng := NewSequential(nil, btb.NewPerfect(), -1)
	if _, ok := seqEng.NextGroup(8); ok {
		t.Error("empty sequential engine returned a group")
	}
	tcEng := NewTraceCache(nil, btb.NewPerfect(), DefaultTCConfig())
	if _, ok := tcEng.NextGroup(8); ok {
		t.Error("empty trace-cache engine returned a group")
	}
}

// TestGroupsAreCapacityCapped holds every engine's groups to len == cap,
// over a flat trace and over a streamed source, so a consumer that appends
// to g.Recs gets a new array instead of writing into the trace or the
// window behind the view.
func TestGroupsAreCapacityCapped(t *testing.T) {
	recs := workload.MustTrace("gcc", 1, 5_000)
	seq, err := chunk.Build(trace.NewSliceSource(recs), 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	bp := func() btb.Predictor { return btb.NewTwoLevel(btb.DefaultTwoLevelConfig()) }
	for _, src := range []struct {
		name string
		open func() trace.Source
	}{
		{"flat", func() trace.Source { return trace.NewSliceSource(recs) }},
		{"streamed", func() trace.Source { return chunk.NewCursor(seq, seq.Len()) }},
	} {
		for _, eng := range []struct {
			name string
			e    Engine
		}{
			{"sequential", NewSequentialSource(src.open(), bp(), 2)},
			{"tracecache", NewTraceCacheSource(src.open(), bp(), DefaultTCConfig())},
			{"collapsing", NewCollapsingBufferSource(src.open(), bp())},
		} {
			n := 0
			for {
				g, ok := eng.e.NextGroup(16)
				if !ok {
					break
				}
				if cap(g.Recs) != len(g.Recs) {
					t.Fatalf("%s/%s: group at record %d has len %d but cap %d", src.name, eng.name, n, len(g.Recs), cap(g.Recs))
				}
				n += len(g.Recs)
			}
			if n != len(recs) {
				t.Errorf("%s/%s: delivered %d of %d records", src.name, eng.name, n, len(recs))
			}
		}
	}
}

// TestPartialMatching: with a real BTB (frequent disagreement with line
// outcomes) partial matching must convert outright misses into partial
// hits, raising the trace-cache hit rate without ever delivering
// wrong-path instructions.
func TestPartialMatching(t *testing.T) {
	recs := workload.MustTrace("gcc", 1, 40_000)
	run := func(partial bool) Stats {
		cfg := DefaultTCConfig()
		cfg.PartialMatching = partial
		e := NewTraceCache(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), cfg)
		var seq uint64
		for _, g := range drain(t, e, 40) {
			for _, r := range g.Recs {
				if r.Seq != seq {
					t.Fatalf("wrong-path delivery at seq %d", r.Seq)
				}
				seq++
			}
		}
		return e.Stats()
	}
	off := run(false)
	on := run(true)
	if on.TCPartialHits == 0 {
		t.Fatal("partial matching produced no partial hits")
	}
	if off.TCPartialHits != 0 {
		t.Error("partial hits counted with the feature off")
	}
	if on.TCHitRate() <= off.TCHitRate() {
		t.Errorf("partial matching did not raise hit rate: %.3f vs %.3f",
			on.TCHitRate(), off.TCHitRate())
	}
}

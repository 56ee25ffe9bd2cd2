package dfg

import (
	"testing"
	"testing/quick"

	"valuepred/internal/isa"
	"valuepred/internal/trace"
)

func TestBucketOf(t *testing.T) {
	cases := map[uint64]Bucket{
		1: BucketDID1, 2: BucketDID2, 3: BucketDID3,
		4: BucketDID4to7, 7: BucketDID4to7,
		8: BucketDID8to15, 15: BucketDID8to15,
		16: BucketDID16to31, 31: BucketDID16to31,
		32: BucketDID32up, 1000000: BucketDID32up,
	}
	for did, want := range cases {
		if got := BucketOf(did); got != want {
			t.Errorf("BucketOf(%d) = %v, want %v", did, got, want)
		}
	}
	// Monotonicity property.
	f := func(a, b uint32) bool {
		x, y := uint64(a)+1, uint64(b)+1
		if x > y {
			x, y = y, x
		}
		return BucketOf(x) <= BucketOf(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for b := BucketDID1; b < NumBuckets; b++ {
		if b.String() == "" {
			t.Errorf("bucket %d has no label", b)
		}
	}
}

// chain builds a trace where each instruction consumes the previous
// instruction's result: every arc has DID 1.
func chain(n int) []trace.Rec {
	recs := make([]trace.Rec, n)
	for i := range recs {
		recs[i] = trace.Rec{
			Seq: uint64(i), PC: isa.PCOf(i % 4),
			Op: isa.ADDI, Rd: isa.T0, Rs1: isa.T0, Val: uint64(i),
		}
	}
	return recs
}

func TestAnalyzeChain(t *testing.T) {
	a := AnalyzeSource(trace.NewSliceSource(chain(100)), Config{})
	if a.Insts != 100 {
		t.Fatalf("insts = %d", a.Insts)
	}
	// First instruction has no producer.
	if a.Arcs != 99 {
		t.Fatalf("arcs = %d, want 99", a.Arcs)
	}
	if a.AvgDID() != 1 {
		t.Errorf("avg DID = %f, want 1", a.AvgDID())
	}
	if a.Hist[BucketDID1] != 99 {
		t.Errorf("DID=1 bucket = %d", a.Hist[BucketDID1])
	}
	if a.FracDIDAtLeast4() != 0 {
		t.Errorf("frac >=4 = %f", a.FracDIDAtLeast4())
	}
}

// TestAnalyzeKnownGraph reproduces the Figure 3.2 arc structure with exact
// DIDs.
func TestAnalyzeKnownGraph(t *testing.T) {
	mk := func(seq uint64, rd, rs1 isa.Reg, val uint64) trace.Rec {
		op := isa.ADDI
		if rs1 == 0 {
			op = isa.LI
		}
		return trace.Rec{Seq: seq, PC: isa.PCOf(int(seq)), Op: op, Rd: rd, Rs1: rs1, Val: val}
	}
	recs := []trace.Rec{
		mk(0, isa.T0, 0, 1),      // 1
		mk(1, isa.T1, isa.T0, 2), // 2: 1->2, DID 1
		mk(2, isa.T2, 0, 3),      // 3
		mk(3, isa.T3, isa.T1, 4), // 4: 2->4, DID 2
		mk(4, isa.T4, isa.T0, 5), // 5: 1->5, DID 4
		mk(5, isa.T5, isa.T4, 6), // 6: 5->6, DID 1
		mk(6, isa.T6, isa.T2, 7), // 7: 3->7, DID 4
		mk(7, isa.S0, isa.T6, 8), // 8: 7->8, DID 1
	}
	a := AnalyzeSource(trace.NewSliceSource(recs), Config{})
	if a.Arcs != 6 {
		t.Fatalf("arcs = %d, want 6", a.Arcs)
	}
	wantSum := uint64(1 + 2 + 4 + 1 + 4 + 1)
	if a.SumDID != wantSum {
		t.Errorf("sum DID = %d, want %d", a.SumDID, wantSum)
	}
	if a.Hist[BucketDID1] != 3 || a.Hist[BucketDID2] != 1 || a.Hist[BucketDID4to7] != 2 {
		t.Errorf("hist = %v", a.Hist)
	}
}

func TestAnalyzeSameRegisterOperandsCountOnce(t *testing.T) {
	recs := []trace.Rec{
		{Seq: 0, PC: isa.PCOf(0), Op: isa.LI, Rd: isa.T0, Val: 2},
		{Seq: 1, PC: isa.PCOf(1), Op: isa.ADD, Rd: isa.T1, Rs1: isa.T0, Rs2: isa.T0, Val: 4},
	}
	a := AnalyzeSource(trace.NewSliceSource(recs), Config{})
	if a.Arcs != 1 {
		t.Errorf("rs1 == rs2 counted as %d arcs", a.Arcs)
	}
}

func TestAnalyzeZeroRegisterNoDep(t *testing.T) {
	recs := []trace.Rec{
		{Seq: 0, PC: isa.PCOf(0), Op: isa.ADDI, Rd: isa.T0, Rs1: 0, Val: 1},
		{Seq: 1, PC: isa.PCOf(1), Op: isa.ADDI, Rd: isa.T1, Rs1: 0, Val: 2},
	}
	if a := AnalyzeSource(trace.NewSliceSource(recs), Config{}); a.Arcs != 0 {
		t.Errorf("x0 reads created %d arcs", a.Arcs)
	}
}

func TestMemoryDeps(t *testing.T) {
	recs := []trace.Rec{
		{Seq: 0, PC: isa.PCOf(0), Op: isa.LI, Rd: isa.T0, Val: 9},
		{Seq: 1, PC: isa.PCOf(1), Op: isa.SD, Rs1: isa.SP, Rs2: isa.T0, Addr: 0x40, Val: 9},
		{Seq: 2, PC: isa.PCOf(2), Op: isa.NOP},
		{Seq: 3, PC: isa.PCOf(3), Op: isa.LD, Rd: isa.T1, Rs1: isa.SP, Addr: 0x40, Val: 9},
	}
	noMem := AnalyzeSource(trace.NewSliceSource(recs), Config{})
	withMem := AnalyzeSource(trace.NewSliceSource(recs), Config{IncludeMemoryDeps: true})
	// Register-only: only the SD's rs2 read of t0.
	if noMem.Arcs != 1 {
		t.Errorf("register arcs = %d", noMem.Arcs)
	}
	// With memory: plus the store->load arc (DID 2) — rs1 reads of sp have
	// no producer in this trace.
	if withMem.Arcs != 2 {
		t.Errorf("arcs with memory = %d", withMem.Arcs)
	}
	if withMem.SumDID != noMem.SumDID+2 {
		t.Errorf("store->load DID wrong: %d vs %d", withMem.SumDID, noMem.SumDID)
	}
}

// TestPredictability feeds a stride-perfect producer and checks the arcs
// land in the predictable histogram after warmup.
func TestPredictability(t *testing.T) {
	var recs []trace.Rec
	seq := uint64(0)
	for i := 0; i < 50; i++ {
		recs = append(recs,
			trace.Rec{Seq: seq, PC: 0x1000, Op: isa.ADDI, Rd: isa.T0, Rs1: isa.T0, Val: uint64(i) * 4},
			trace.Rec{Seq: seq + 1, PC: 0x1004, Op: isa.ADDI, Rd: isa.T1, Rs1: isa.T0, Val: uint64(i)*4 + 1},
		)
		seq += 2
	}
	a := AnalyzeSource(trace.NewSliceSource(recs), Config{})
	if a.Predictable() == 0 {
		t.Fatal("no predictable arcs found")
	}
	// After warmup nearly all t0->t1 arcs (DID 1) and loop-carried t0->t0
	// arcs (DID 2) are predictable.
	frac := float64(a.Predictable()) / float64(a.Arcs)
	if frac < 0.9 {
		t.Errorf("predictable fraction = %.2f", frac)
	}
	if a.FracPredictableShort() < 0.9 {
		t.Errorf("predictable-short = %.2f", a.FracPredictableShort())
	}
	if a.FracPredictableLong() != 0 {
		t.Errorf("predictable-long = %.2f on short-DID trace", a.FracPredictableLong())
	}
}

func TestEmptyAnalysis(t *testing.T) {
	a := AnalyzeSource(trace.NewSliceSource(nil), Config{})
	if a.AvgDID() != 0 || a.FracDIDAtLeast4() != 0 ||
		a.FracPredictableShort() != 0 || a.FracPredictableLong() != 0 {
		t.Error("empty analysis must return zeros")
	}
}

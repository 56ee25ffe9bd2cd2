package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"valuepred/internal/isa"
)

func sampleRecs() []Rec {
	return []Rec{
		{Seq: 0, PC: isa.PCOf(0), Op: isa.LI, Rd: isa.T0, Imm: 5, Val: 5, Target: isa.PCOf(1)},
		{Seq: 1, PC: isa.PCOf(1), Op: isa.ADD, Rd: isa.T1, Rs1: isa.T0, Rs2: isa.T0, Val: 10, Target: isa.PCOf(2)},
		{Seq: 2, PC: isa.PCOf(2), Op: isa.SD, Rs1: isa.SP, Rs2: isa.T1, Addr: 0x4000, Val: 10, Target: isa.PCOf(3)},
		{Seq: 3, PC: isa.PCOf(3), Op: isa.LD, Rd: isa.T2, Rs1: isa.SP, Addr: 0x4000, Val: 10, Target: isa.PCOf(4)},
		{Seq: 4, PC: isa.PCOf(4), Op: isa.BNE, Rs1: isa.T2, Rs2: isa.T0, Taken: true, Target: isa.PCOf(0)},
		{Seq: 5, PC: isa.PCOf(0), Op: isa.JAL, Rd: isa.RA, Taken: true, Target: isa.PCOf(2)},
	}
}

func TestWritesValue(t *testing.T) {
	r := Rec{Op: isa.ADD, Rd: isa.T0}
	if !r.WritesValue() {
		t.Error("add to t0 must produce a value")
	}
	r.Rd = 0
	if r.WritesValue() {
		t.Error("add to x0 must not produce a value")
	}
	if (Rec{Op: isa.SD}).WritesValue() || (Rec{Op: isa.BEQ}).WritesValue() {
		t.Error("stores/branches must not produce values")
	}
}

func TestSummarize(t *testing.T) {
	s := SummarizeSource(NewSliceSource(sampleRecs()))
	if s.Insts != 6 || s.Loads != 1 || s.Stores != 1 ||
		s.CondBranches != 1 || s.TakenCond != 1 || s.Jumps != 1 {
		t.Errorf("summary wrong: %+v", s)
	}
	if s.ValueWriters != 4 { // li, add, ld, jal
		t.Errorf("ValueWriters = %d, want 4", s.ValueWriters)
	}
	if s.StaticPCs != 5 {
		t.Errorf("StaticPCs = %d, want 5", s.StaticPCs)
	}
	if !strings.Contains(s.String(), "insts=6") {
		t.Errorf("summary string: %s", s)
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource(sampleRecs())
	if src.Len() != 6 {
		t.Fatalf("Len = %d", src.Len())
	}
	var n int
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 6 {
		t.Fatalf("drained %d records", n)
	}
	src.Reset()
	if r, ok := src.Next(); !ok || r.Seq != 0 {
		t.Error("Reset did not rewind")
	}
	// View lends what is left after that Next, capacity-capped, and is
	// empty at the end.
	for _, want := range [][]uint64{{1, 2, 3, 4}, {5}, nil} {
		v := src.View(4)
		if len(v) != len(want) || cap(v) != len(v) {
			t.Fatalf("View(4) = len %d cap %d, want len %d", len(v), cap(v), len(want))
		}
		for i, r := range v {
			if r.Seq != want[i] {
				t.Fatalf("View(4)[%d].Seq = %d, want %d", i, r.Seq, want[i])
			}
		}
	}
}

func TestCollectLimit(t *testing.T) {
	if got := Collect(NewSliceSource(sampleRecs()), 3); len(got) != 3 {
		t.Errorf("Collect(3) returned %d", len(got))
	}
	if got := Collect(NewSliceSource(sampleRecs()), 0); len(got) != 6 {
		t.Errorf("Collect(0) returned %d", len(got))
	}
}

func TestRecString(t *testing.T) {
	s := sampleRecs()[1].String()
	if !strings.Contains(s, "add") || !strings.Contains(s, "t1=10") {
		t.Errorf("Rec.String() = %q", s)
	}
	b := sampleRecs()[4].String()
	if !strings.Contains(b, "taken=true") {
		t.Errorf("branch Rec.String() = %q", b)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := sampleRecs()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("Count = %d", w.Count())
	}
	r := NewReader(&buf)
	got := Collect(r, 0)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("roundtrip mismatch:\n got %v\nwant %v", got, recs)
	}
}

// randomRec builds a structurally valid record for the property test.
func randomRec(rng *rand.Rand, seq uint64, lastPC uint64) Rec {
	ops := []isa.Opcode{isa.ADD, isa.ADDI, isa.LI, isa.LD, isa.SD, isa.BEQ, isa.JAL, isa.MUL, isa.XOR}
	op := ops[rng.Intn(len(ops))]
	r := Rec{
		Seq: seq,
		PC:  lastPC + uint64(rng.Intn(16))*4,
		Op:  op,
		Rd:  isa.Reg(rng.Intn(32)),
		Rs1: isa.Reg(rng.Intn(32)),
		Rs2: isa.Reg(rng.Intn(32)),
		Imm: int64(rng.Uint64()),
		Val: rng.Uint64(),
	}
	if op.IsLoad() || op.IsStore() {
		r.Addr = rng.Uint64()
	}
	if op.IsControl() {
		r.Taken = rng.Intn(2) == 0 || op.IsJump()
		r.Target = rng.Uint64() &^ 3
	} else {
		r.Target = r.PC + isa.InstBytes
	}
	return r
}

func TestCodecRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		recs := make([]Rec, n)
		pc := isa.TextBase
		for i := range recs {
			recs[i] = randomRec(rng, uint64(i), pc)
			pc = recs[i].PC
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		rd := NewReader(&buf)
		got := Collect(rd, 0)
		return rd.Err() == nil && reflect.DeepEqual(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCodecBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOPE....")))
	if _, ok := r.Next(); ok {
		t.Error("bad magic accepted")
	}
	if r.Err() == nil {
		t.Error("bad magic produced no error")
	}
}

func TestCodecTruncated(t *testing.T) {
	recs := sampleRecs()
	// ends[j] is the encoded length of recs[:j]: the header, then j records.
	var ends []int
	var buf bytes.Buffer
	for j := 0; j <= len(recs); j++ {
		buf.Reset()
		w := NewWriter(&buf)
		for _, r := range recs[:j] {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, max(buf.Len(), len(magic)))
	}
	full := buf.Bytes()
	// Chop anywhere past the header: the reader must serve exactly the
	// records the cut leaves whole, and flag an error unless the cut falls
	// between records, never loop or panic.
	for cut := len(magic); cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		got := Collect(r, 0)
		whole := 0
		for whole < len(recs) && ends[whole+1] <= cut {
			whole++
		}
		if !slices.Equal(got, recs[:whole]) {
			t.Errorf("cut at %d: served %d records, want the %d whole ones", cut, len(got), whole)
		}
		if atEnd := cut == ends[whole]; (r.Err() == nil) != atEnd {
			t.Errorf("cut at %d: err = %v, want an error only mid-record", cut, r.Err())
		}
	}
}

func TestCodecEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, ok := r.Next(); ok {
		t.Error("empty stream yielded a record")
	}
	if r.Err() != nil {
		t.Errorf("clean EOF reported error: %v", r.Err())
	}
}

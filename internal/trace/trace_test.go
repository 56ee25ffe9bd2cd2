package trace

import (
	"bytes"
	"encoding/binary"
	"math"
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
	src = NewSliceSource(sampleRecs())
	if r, ok := src.Next(); !ok || r.Seq != 0 {
		t.Error("Next did not start at the first record")
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
	// Write the records as blocks of 1, 2 and 3, so the file has block
	// boundaries to cut at; ends[j] is the file's length after block j
	// (ends[0] the magic).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ends := []int{len(fileMagic)}
	served := []int{0} // records in the blocks before each end
	for _, blk := range [][]Rec{recs[:1], recs[1:3], recs[3:]} {
		for _, r := range blk {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
		served = append(served, served[len(served)-1]+len(blk))
	}
	full := buf.Bytes()
	// Cut anywhere past the magic: the reader must serve exactly the
	// records of the blocks the cut leaves whole, and flag an error unless
	// the cut falls between blocks, never loop or panic.
	for cut := len(fileMagic); cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		got := Collect(r, 0)
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		if !slices.Equal(got, recs[:served[whole]]) {
			t.Errorf("cut at %d: served %d records, want the %d of the whole blocks", cut, len(got), served[whole])
		}
		if atEnd := cut == ends[whole]; (r.Err() == nil) != atEnd {
			t.Errorf("cut at %d: err = %v, want an error only mid-block", cut, r.Err())
		}
	}
}

// TestCodecManyBlocks writes more records than one block of a file holds
// and reads them back through Next and View.
func TestCodecManyBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Rec, 2*fileBlockRecs+5)
	pc := isa.TextBase
	for i := range recs {
		recs[i] = randomRec(rng, uint64(i), pc)
		pc = recs[i].Target
	}
	rd := NewReader(bytes.NewReader(writeFile(t, recs)))
	var got []Rec
	for v := rd.View(1000); len(v) > 0; v = rd.View(1000) {
		if len(v) > 1000 || cap(v) != len(v) {
			t.Fatalf("View(1000) returned len %d cap %d", len(v), cap(v))
		}
		got = append(got, v...)
		if r, ok := rd.Next(); ok {
			got = append(got, r)
		}
	}
	if rd.Err() != nil || !slices.Equal(got, recs) {
		t.Fatalf("read %d records (err %v), want the %d written", len(got), rd.Err(), len(recs))
	}
}

// encodeBlock encodes recs as one block with a fresh Encoder.
func encodeBlock(recs []Rec) []byte {
	var e Encoder
	return e.AppendBlock(nil, recs)
}

// TestBlockRoundTrip decodes blocks of records the format describes and
// of records it stores as exceptions, and checks which are which.
func TestBlockRoundTrip(t *testing.T) {
	// loop is sampleRecs with its branch's Imm reaching its target, run
	// twice round: every record follows the format's rules.
	loop := sampleRecs()[:5]
	loop[4].Imm = -4 * isa.InstBytes
	loop = append(loop, loop...)
	for i := range loop {
		loop[i].Seq = uint64(i)
	}
	off := func(i int, change func(r *Rec)) []Rec {
		recs := slices.Clone(loop)
		change(&recs[i])
		return recs
	}
	for _, tc := range []struct {
		name string
		recs []Rec
		exc  []int
	}{
		{"empty", nil, nil},
		{"loop", loop, nil},
		// sampleRecs' branch has no Imm and its JAL's Val and Target
		// are not PC+4 and PC+Imm; the JAL's PC is also the LI's.
		{"sample", sampleRecs(), []int{4, 5}},
		{"another PC", off(7, func(r *Rec) { r.PC += 8 }), []int{7}},
		{"another static field", off(6, func(r *Rec) { r.Rs2 = 200 }), []int{6}},
		{"a derived field", off(1, func(r *Rec) { r.Taken = true }), []int{1}},
		// The next record is then not at its predecessor's target either.
		{"a derived target", off(3, func(r *Rec) { r.Target += 4 }), []int{3, 4}},
		{"a bad opcode", off(0, func(r *Rec) { r.Op = isa.Opcode(isa.NumOpcodes) }), []int{0}},
	} {
		data := encodeBlock(tc.recs)
		exc, err := exceptions(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(exc, tc.exc) {
			t.Errorf("%s: exceptions %v, want %v", tc.name, exc, tc.exc)
		}
		got, err := DecodeBlock(nil, data, 0, len(tc.recs))
		if err != nil || !slices.Equal(got, tc.recs) {
			t.Errorf("%s: decoded %v (err %v), want %v", tc.name, got, err, tc.recs)
		}
	}
}

// TestBlockCountCap pins that a block claiming more records than its cap
// fails before DecodeBlock sizes anything to the claim. A JAL to itself
// stores no bytes per record, so its block's length does not bound its
// count.
func TestBlockCountCap(t *testing.T) {
	spin := make([]Rec, 10)
	for i := range spin {
		spin[i] = Rec{Seq: uint64(i), PC: isa.TextBase, Op: isa.JAL, Val: isa.TextBase + isa.InstBytes, Taken: true, Target: isa.TextBase}
	}
	data := encodeBlock(spin)
	if got, err := DecodeBlock(nil, data, 0, len(spin)); err != nil || !slices.Equal(got, spin) {
		t.Fatalf("decoded %d records (err %v), want the 10 spinning JALs", len(got), err)
	}
	// The same block claiming 2^62 records.
	huge := append(binary.AppendUvarint(slices.Clone(data[:len(blockMagic)]), 1<<62), data[len(blockMagic)+1:]...)
	for _, tc := range []struct {
		data []byte
		max  int
	}{{data, len(spin) - 1}, {huge, fileBlockRecs}, {huge, math.MaxInt32}} {
		got, err := DecodeBlock(nil, tc.data, 0, tc.max)
		if err == nil || cap(got) != 0 {
			t.Errorf("cap %d: decoded %d records into capacity %d (err %v), want an error and nothing allocated", tc.max, len(got), cap(got), err)
		}
	}
	// A file block may hold at most fileBlockRecs records.
	var file bytes.Buffer
	file.Write(fileMagic[:])
	file.Write(binary.AppendUvarint(nil, uint64(len(huge))))
	file.Write(huge)
	r := NewReader(&file)
	if got := Collect(r, 0); len(got) != 0 || r.Err() == nil {
		t.Errorf("file block claiming 2^62 records: served %d records, err %v", len(got), r.Err())
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

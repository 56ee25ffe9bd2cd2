package isa

import (
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		X0: "zero", RA: "ra", SP: "sp", GP: "gp", TP: "tp",
		T0: "t0", T2: "t2", S0: "s0", A0: "a0", A7: "a7",
		S2: "s2", S11: "s11", T3: "t3", T6: "t6",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(r), got, want)
		}
	}
	if got := Reg(40).String(); got != "x40" {
		t.Errorf("out-of-range reg = %q", got)
	}
}

func TestRegValid(t *testing.T) {
	if !X0.Valid() || !T6.Valid() {
		t.Error("architectural registers must be valid")
	}
	if Reg(32).Valid() {
		t.Error("register 32 must be invalid")
	}
}

func TestOpcodeMetadata(t *testing.T) {
	// Every defined opcode (except BAD) must have a name and a class.
	for op := Opcode(1); int(op) < NumOpcodes; op++ {
		if !op.Valid() {
			t.Errorf("opcode %d should be valid", op)
		}
		if op.String() == "" || op.String() == "bad" {
			t.Errorf("opcode %d has bad name %q", op, op)
		}
	}
	if Opcode(0).Valid() || Opcode(200).Valid() {
		t.Error("BAD and out-of-range opcodes must be invalid")
	}
	if Opcode(200).String() != "op(200)" {
		t.Errorf("out-of-range opcode name = %q", Opcode(200))
	}

	// Structural invariants tying metadata to classes.
	for op := Opcode(1); int(op) < NumOpcodes; op++ {
		switch op.Class() {
		case ClassLoad:
			if !op.WritesRd() || !op.ReadsRs1() || op.ReadsRs2() {
				t.Errorf("load %v has wrong operand metadata", op)
			}
		case ClassStore:
			if op.WritesRd() || !op.ReadsRs1() || !op.ReadsRs2() {
				t.Errorf("store %v has wrong operand metadata", op)
			}
		case ClassBranch:
			if op.WritesRd() {
				t.Errorf("branch %v must not write a register", op)
			}
			if !op.IsControl() {
				t.Errorf("branch %v must be control", op)
			}
		case ClassJump:
			if !op.WritesRd() {
				t.Errorf("jump %v must produce a link value", op)
			}
		}
	}
	if !JAL.IsJump() || !BEQ.IsBranch() || !LD.IsLoad() || !SD.IsStore() {
		t.Error("class predicates broken")
	}
	if HALT.IsControl() || ADD.IsControl() {
		t.Error("non-control opcodes flagged as control")
	}
}

// TestPredicatesMatchOpTable holds every byte value's predicates to its
// opTable row: each flag predicate answers the row's fact, and past
// NumOpcodes every predicate answers false and Class answers ClassSystem,
// as fuzzed trace bytes can carry such an opcode.
func TestPredicatesMatchOpTable(t *testing.T) {
	for b := 0; b < 256; b++ {
		op := Opcode(b)
		var want opInfo
		wantClass := ClassSystem
		if b < NumOpcodes {
			want, wantClass = opTable[b], opTable[b].class
		}
		defined := b < NumOpcodes
		for _, c := range []struct {
			name      string
			got, want bool
		}{
			{"WritesRd", op.WritesRd(), want.writesRd},
			{"ReadsRs1", op.ReadsRs1(), want.readsRs1},
			{"ReadsRs2", op.ReadsRs2(), want.readsRs2},
			{"HasImm", op.HasImm(), want.hasImm},
			{"IsLoad", op.IsLoad(), defined && want.class == ClassLoad},
			{"IsStore", op.IsStore(), defined && want.class == ClassStore},
			{"IsBranch", op.IsBranch(), defined && want.class == ClassBranch},
			{"IsJump", op.IsJump(), defined && want.class == ClassJump},
			{"IsControl", op.IsControl(), defined && (want.class == ClassBranch || want.class == ClassJump)},
		} {
			if c.got != c.want {
				t.Errorf("Opcode(%d).%s() = %v, want %v", b, c.name, c.got, c.want)
			}
		}
		if got := op.Class(); got != wantClass {
			t.Errorf("Opcode(%d).Class() = %v, want %v", b, got, wantClass)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: T0, Rs1: T1, Rs2: T2}, "add t0, t1, t2"},
		{Inst{Op: ADDI, Rd: A0, Rs1: A1, Imm: -3}, "addi a0, a1, -3"},
		{Inst{Op: LI, Rd: S0, Imm: 99}, "li s0, 99"},
		{Inst{Op: LD, Rd: T0, Rs1: SP, Imm: 8}, "ld t0, 8(sp)"},
		{Inst{Op: SD, Rs1: SP, Rs2: T1, Imm: 16}, "sd t1, 16(sp)"},
		{Inst{Op: BEQ, Rs1: T0, Rs2: T1, Imm: -8}, "beq t0, t1, -8"},
		{Inst{Op: JAL, Rd: RA, Imm: 16}, "jal ra, +16"},
		{Inst{Op: JALR, Rd: X0, Rs1: RA}, "jalr zero, 0(ra)"},
		{Inst{Op: HALT}, "halt"},
		{Inst{Op: NOP}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPCIndexRoundTrip(t *testing.T) {
	n := 1000
	f := func(i uint16) bool {
		idx := int(i) % n
		got, ok := IndexOf(PCOf(idx), n)
		return ok && got == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexOfRejects(t *testing.T) {
	if _, ok := IndexOf(TextBase-4, 10); ok {
		t.Error("address below text accepted")
	}
	if _, ok := IndexOf(TextBase+1, 10); ok {
		t.Error("misaligned address accepted")
	}
	if _, ok := IndexOf(PCOf(10), 10); ok {
		t.Error("address one past the end accepted")
	}
}

func TestProgramAtAndSymbol(t *testing.T) {
	p := &Program{
		Insts:   []Inst{{Op: NOP}, {Op: HALT}},
		Entry:   TextBase,
		Symbols: map[string]uint64{"start": TextBase},
	}
	if in, ok := p.At(PCOf(1)); !ok || in.Op != HALT {
		t.Errorf("At(PCOf(1)) = %v, %v", in, ok)
	}
	if _, ok := p.At(PCOf(2)); ok {
		t.Error("At past end succeeded")
	}
	if p.Symbol("start") != TextBase {
		t.Error("Symbol lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("Symbol of unknown name should panic")
		}
	}()
	p.Symbol("nonesuch")
}

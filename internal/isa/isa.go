// Package isa defines the register instruction set executed by the
// functional emulator and analysed by every machine model in this
// repository.
//
// The ISA is a compact RV64-flavoured RISC: 32 integer registers (x0 is
// hard-wired to zero), 64-bit values, 4-byte instruction slots, loads and
// stores of bytes and 64-bit words, conditional branches and direct and
// indirect jumps. One deliberate non-RISC convenience exists: LI carries a
// full 64-bit immediate in a single instruction, which keeps workload
// programs free of constant-synthesis noise that the paper's SPARC traces
// would not contain either.
package isa

import "fmt"

// Reg names one of the 32 architectural integer registers. Register 0 reads
// as zero and writes to it are discarded; it never participates in a
// true-data dependence.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// ABI-style register aliases used by the assembler DSL and the workloads.
const (
	X0                                       Reg = iota
	RA                                           // return address (link)
	SP                                           // stack pointer
	GP                                           // global/data pointer
	TP                                           // thread/heap pointer
	T0, T1, T2                               Reg = 5, 6, 7
	S0, S1                                   Reg = 8, 9
	A0, A1, A2, A3, A4, A5, A6, A7           Reg = 10, 11, 12, 13, 14, 15, 16, 17
	S2, S3, S4, S5, S6, S7, S8, S9, S10, S11 Reg = 18, 19, 20, 21, 22, 23, 24, 25, 26, 27
	T3, T4, T5, T6                           Reg = 28, 29, 30, 31
)

// Zero is the canonical alias for the hard-wired zero register.
const Zero = X0

var regNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// String returns the ABI name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Opcode identifies an operation. The zero value is invalid so that
// accidentally zeroed instructions are caught early.
type Opcode uint8

// Operation codes.
const (
	BAD Opcode = iota

	// Register-register ALU.
	ADD
	SUB
	MUL
	DIV // signed; division by zero yields all-ones (RISC-V semantics)
	REM // signed; remainder of division by zero yields the dividend
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU

	// Register-immediate ALU.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI

	// Constant materialisation: rd = imm (full 64-bit immediate).
	LI

	// Memory. Effective address is rs1 + imm.
	LD // load 64-bit word
	LB // load byte, zero-extended
	SD // store 64-bit word (value in rs2)
	SB // store low byte (value in rs2)

	// Control transfer. Branch targets are byte offsets in imm relative to
	// the branch's own PC. JAL writes pc+4 to rd and jumps pc+imm. JALR
	// writes pc+4 to rd and jumps (rs1+imm) with the low bit cleared.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JAL
	JALR

	// HALT stops the machine; NOP does nothing.
	HALT
	NOP

	numOpcodes
)

// NumOpcodes is the number of defined opcodes (including BAD).
const NumOpcodes = int(numOpcodes)

type opInfo struct {
	name     string
	writesRd bool
	readsRs1 bool
	readsRs2 bool
	hasImm   bool
	class    Class
}

// Class groups opcodes by their role in the machine models.
type Class uint8

// Instruction classes.
const (
	ClassALU Class = iota
	ClassLoad
	ClassStore
	ClassBranch // conditional control transfer
	ClassJump   // unconditional control transfer
	ClassSystem // HALT, NOP, BAD
)

var opTable = [NumOpcodes]opInfo{
	BAD:  {"bad", false, false, false, false, ClassSystem},
	ADD:  {"add", true, true, true, false, ClassALU},
	SUB:  {"sub", true, true, true, false, ClassALU},
	MUL:  {"mul", true, true, true, false, ClassALU},
	DIV:  {"div", true, true, true, false, ClassALU},
	REM:  {"rem", true, true, true, false, ClassALU},
	AND:  {"and", true, true, true, false, ClassALU},
	OR:   {"or", true, true, true, false, ClassALU},
	XOR:  {"xor", true, true, true, false, ClassALU},
	SLL:  {"sll", true, true, true, false, ClassALU},
	SRL:  {"srl", true, true, true, false, ClassALU},
	SRA:  {"sra", true, true, true, false, ClassALU},
	SLT:  {"slt", true, true, true, false, ClassALU},
	SLTU: {"sltu", true, true, true, false, ClassALU},
	ADDI: {"addi", true, true, false, true, ClassALU},
	ANDI: {"andi", true, true, false, true, ClassALU},
	ORI:  {"ori", true, true, false, true, ClassALU},
	XORI: {"xori", true, true, false, true, ClassALU},
	SLLI: {"slli", true, true, false, true, ClassALU},
	SRLI: {"srli", true, true, false, true, ClassALU},
	SRAI: {"srai", true, true, false, true, ClassALU},
	SLTI: {"slti", true, true, false, true, ClassALU},
	LI:   {"li", true, false, false, true, ClassALU},
	LD:   {"ld", true, true, false, true, ClassLoad},
	LB:   {"lb", true, true, false, true, ClassLoad},
	SD:   {"sd", false, true, true, true, ClassStore},
	SB:   {"sb", false, true, true, true, ClassStore},
	BEQ:  {"beq", false, true, true, true, ClassBranch},
	BNE:  {"bne", false, true, true, true, ClassBranch},
	BLT:  {"blt", false, true, true, true, ClassBranch},
	BGE:  {"bge", false, true, true, true, ClassBranch},
	BLTU: {"bltu", false, true, true, true, ClassBranch},
	BGEU: {"bgeu", false, true, true, true, ClassBranch},
	JAL:  {"jal", true, false, false, true, ClassJump},
	JALR: {"jalr", true, true, false, true, ClassJump},
	HALT: {"halt", false, false, false, false, ClassSystem},
	NOP:  {"nop", false, false, false, false, ClassSystem},
}

// String returns the mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < NumOpcodes {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined, non-BAD opcode.
func (op Opcode) Valid() bool { return op > BAD && int(op) < NumOpcodes }

// opFlag is one bit of an opcode's facts in opFlags.
type opFlag uint8

const (
	flagWritesRd opFlag = 1 << iota
	flagReadsRs1
	flagReadsRs2
	flagHasImm
	flagLoad
	flagStore
	flagBranch
	flagJump
)

// opFlags holds opTable's facts as bits, one row for every byte value, so
// each predicate below is one load and a test with no bounds check. It is
// derived from opTable, which stays the one source of opcode facts; the
// rows past NumOpcodes stay zero, so every predicate answers false for an
// invalid opcode.
var opFlags = func() (t [256]opFlag) {
	bit := func(on bool, f opFlag) opFlag {
		if on {
			return f
		}
		return 0
	}
	for op, in := range opTable {
		t[op] = bit(in.writesRd, flagWritesRd) | bit(in.readsRs1, flagReadsRs1) |
			bit(in.readsRs2, flagReadsRs2) | bit(in.hasImm, flagHasImm) |
			bit(in.class == ClassLoad, flagLoad) | bit(in.class == ClassStore, flagStore) |
			bit(in.class == ClassBranch, flagBranch) | bit(in.class == ClassJump, flagJump)
	}
	return t
}()

// WritesRd reports whether the opcode produces a register result. Only
// result-producing instructions are candidates for value prediction.
func (op Opcode) WritesRd() bool { return opFlags[op]&flagWritesRd != 0 }

// ReadsRs1 reports whether the opcode reads its first source register.
func (op Opcode) ReadsRs1() bool { return opFlags[op]&flagReadsRs1 != 0 }

// ReadsRs2 reports whether the opcode reads its second source register.
func (op Opcode) ReadsRs2() bool { return opFlags[op]&flagReadsRs2 != 0 }

// HasImm reports whether the opcode carries an immediate operand.
func (op Opcode) HasImm() bool { return opFlags[op]&flagHasImm != 0 }

// Class returns the opcode's instruction class.
func (op Opcode) Class() Class {
	if int(op) < NumOpcodes {
		return opTable[op].class
	}
	return ClassSystem
}

// IsBranch reports whether the opcode is a conditional branch.
func (op Opcode) IsBranch() bool { return opFlags[op]&flagBranch != 0 }

// IsJump reports whether the opcode is an unconditional control transfer.
func (op Opcode) IsJump() bool { return opFlags[op]&flagJump != 0 }

// IsControl reports whether the opcode can redirect the PC.
func (op Opcode) IsControl() bool { return opFlags[op]&(flagBranch|flagJump) != 0 }

// IsLoad reports whether the opcode reads memory.
func (op Opcode) IsLoad() bool { return opFlags[op]&flagLoad != 0 }

// IsStore reports whether the opcode writes memory.
func (op Opcode) IsStore() bool { return opFlags[op]&flagStore != 0 }

// Inst is a single static instruction.
type Inst struct {
	Op  Opcode
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64
}

// String disassembles the instruction.
func (in Inst) String() string {
	switch {
	case in.Op == HALT || in.Op == NOP || in.Op == BAD:
		return in.Op.String()
	case in.Op == LI:
		return fmt.Sprintf("li %s, %d", in.Rd, in.Imm)
	case in.Op.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case in.Op.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s, %s, %+d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case in.Op == JAL:
		return fmt.Sprintf("jal %s, %+d", in.Rd, in.Imm)
	case in.Op == JALR:
		return fmt.Sprintf("jalr %s, %d(%s)", in.Rd, in.Imm, in.Rs1)
	case in.Op.HasImm():
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// InstBytes is the architectural size of one instruction slot.
const InstBytes = 4

// Default memory-layout addresses shared by the assembler and emulator.
const (
	// TextBase is the address of the first instruction.
	TextBase uint64 = 0x0000_1000
	// DataBase is the address of the first data byte.
	DataBase uint64 = 0x0010_0000
	// HeapBase is where emulator-managed dynamic allocation begins.
	HeapBase uint64 = 0x0100_0000
	// StackTop is the initial stack pointer (stack grows down).
	StackTop uint64 = 0x0400_0000
)

// Segment is a contiguous range of initialised memory in a program image.
type Segment struct {
	Addr uint64
	Data []byte
}

// Program is an assembled program: its text, initial data image and symbol
// table.
type Program struct {
	// Insts is the instruction text; instruction i lives at
	// TextBase + i*InstBytes.
	Insts []Inst
	// Entry is the address of the first instruction to execute.
	Entry uint64
	// Segments is the initial data memory image.
	Segments []Segment
	// Symbols maps labels (code and data) to addresses.
	Symbols map[string]uint64
}

// PCOf returns the address of instruction index i.
func PCOf(i int) uint64 { return TextBase + uint64(i)*InstBytes }

// IndexOf returns the instruction index of address pc and whether pc lies in
// the text segment of a program with n instructions.
func IndexOf(pc uint64, n int) (int, bool) {
	if pc < TextBase || (pc-TextBase)%InstBytes != 0 {
		return 0, false
	}
	i := int((pc - TextBase) / InstBytes)
	if i < 0 || i >= n {
		return 0, false
	}
	return i, true
}

// At returns the instruction at address pc.
func (p *Program) At(pc uint64) (Inst, bool) {
	i, ok := IndexOf(pc, len(p.Insts))
	if !ok {
		return Inst{}, false
	}
	return p.Insts[i], true
}

// Symbol returns the address of a label, panicking if it is unknown. It is
// intended for test and workload setup code where a missing label is a
// programming error.
func (p *Program) Symbol(name string) uint64 {
	a, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("isa: unknown symbol %q", name))
	}
	return a
}

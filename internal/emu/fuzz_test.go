package emu_test

import (
	"fmt"
	"slices"
	"testing"

	"valuepred/internal/asm"
	"valuepred/internal/emu"
	"valuepred/internal/isa"
	"valuepred/internal/trace"
)

// emitters drive every instruction-emitting method of asm.Builder that
// TestEveryEmitter lists, plus Label, from three fuzz bytes: a register
// byte, a second register byte and an immediate byte. Branches and jumps
// name one of eight labels, L0–L7, and La the one data symbol or a label.
var emitters = []func(b *asm.Builder, r1, r2, imm byte){
	func(b *asm.Builder, r1, r2, imm byte) { b.Label(label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Add(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Sub(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Mul(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Div(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Rem(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.And(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Or(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Xor(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Sll(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Srl(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Sra(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Slt(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Sltu(reg(r1), reg(r2), reg(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Addi(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Andi(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Ori(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Xori(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Slli(reg(r1), reg(r2), int64(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Srli(reg(r1), reg(r2), int64(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Srai(reg(r1), reg(r2), int64(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Slti(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Li(reg(r1), int64(int8(imm))<<(r2%64)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Mv(reg(r1), reg(r2)) },
	func(b *asm.Builder, r1, r2, imm byte) {
		if imm&1 == 0 {
			b.La(reg(r1), "data")
		} else {
			b.La(reg(r1), label(imm>>1))
		}
	},
	func(b *asm.Builder, r1, r2, imm byte) { b.Ld(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Lb(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Sd(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Sb(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Beq(reg(r1), reg(r2), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Bne(reg(r1), reg(r2), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Blt(reg(r1), reg(r2), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Bge(reg(r1), reg(r2), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Bltu(reg(r1), reg(r2), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Bgeu(reg(r1), reg(r2), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Beqz(reg(r1), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Bnez(reg(r1), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Jal(reg(r1), label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.J(label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Call(label(imm)) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Jalr(reg(r1), reg(r2), int64(int8(imm))) },
	func(b *asm.Builder, r1, r2, imm byte) { b.Ret() },
	func(b *asm.Builder, r1, r2, imm byte) { b.Nop() },
	func(b *asm.Builder, r1, r2, imm byte) { b.Halt() },
}

func reg(b byte) isa.Reg     { return isa.Reg(b % isa.NumRegs) }
func label(b byte) string    { return fmt.Sprintf("L%d", b%8) }
func quad(b []byte) int64    { return int64(b[0]) | int64(b[1])<<8 | int64(int8(b[2]))<<56 }
func quads(b []byte) []int64 { return []int64{quad(b[:3]), quad(b[3:6])} }

// FuzzProgram assembles a program from fuzz bytes and runs it. The first
// six bytes are the two quads of the data symbol "data"; every four bytes
// after them emit one instruction or label (emitters). Assemble may fail,
// on an undefined or duplicate label, but must not panic; the emulator
// runs at most 4096 steps and must not panic either. Its records must
// number consecutively, each at the previous one's target, and encoding
// them as one trace block and decoding it must give them back exactly.
// The committed seed corpus is in testdata/fuzz/FuzzProgram.
func FuzzProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		b := asm.NewBuilder()
		b.Quads("data", quads(data[:6])...)
		for p := data[6:]; len(p) >= 4; p = p[4:] {
			emitters[int(p[0])%len(emitters)](b, p[1], p[2], p[3])
		}
		prog, err := b.Assemble()
		if err != nil {
			return
		}
		recs := emu.New(prog).Run(4096)
		for i, r := range recs {
			if r.Seq != uint64(i) {
				t.Fatalf("record %d has Seq %d", i, r.Seq)
			}
			if i > 0 && r.PC != recs[i-1].Target {
				t.Fatalf("record %d at PC %#x, but record %d's target is %#x", i, r.PC, i-1, recs[i-1].Target)
			}
		}
		var enc trace.Encoder
		got, err := trace.DecodeBlock(nil, enc.AppendBlock(nil, recs), 0, len(recs))
		if err != nil || !slices.Equal(got, recs) {
			t.Fatalf("decoded %d records (err %v), want the %d the emulator ran", len(got), err, len(recs))
		}
	})
}

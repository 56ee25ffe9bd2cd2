package trace

import (
	"bytes"
	"slices"
	"testing"

	"valuepred/internal/isa"
)

// writeFile encodes recs as a trace file.
func writeFile(tb testing.TB, recs []Rec) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes to the trace file decoder: it must
// never panic or loop, only return records or a clean error. The records
// it serves number consecutively from 0, and they are a trace the format
// holds, so writing them and reading them back gives them again.
func FuzzReader(f *testing.F) {
	valid := writeFile(f, sampleRecs())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("VPT1")) // the retired format's magic
	corrupted := append([]byte{}, valid...)
	if len(corrupted) > 10 {
		corrupted[8] ^= 0xFF
	}
	f.Add(corrupted)
	f.Add(writeFile(f, fuzzRecs([]byte("\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xf1\xf2\xf3\xf4\xf5\xf6"))))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var got []Rec
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			if rec.Seq != uint64(len(got)) {
				t.Fatalf("non-consecutive Seq %d at record %d", rec.Seq, len(got))
			}
			got = append(got, rec)
			// A block takes at least 8 bytes with its length prefix.
			if len(got) > fileBlockRecs*(len(data)/8) {
				t.Fatalf("decoded %d records from %d bytes", len(got), len(data))
			}
		}
		if r.Err() != nil {
			return
		}
		again := NewReader(bytes.NewReader(writeFile(t, got)))
		if back := Collect(again, 0); again.Err() != nil || !slices.Equal(back, got) {
			t.Fatalf("the %d records read did not round-trip (err %v)", len(got), again.Err())
		}
	})
}

// fuzzRecs turns fuzz bytes into records with consecutive Seq. The first
// 16 bytes are a program of four instructions, four bytes each: opcode,
// registers, immediate. Every three bytes after them are one record at the
// previous record's target: its static fields are the program's
// instruction there, and its dynamic fields follow from the bytes as the
// emulator would set them. A record whose third byte has its top nibble
// set then has one field changed, which the nibble below names, to a value
// the format cannot derive; an opcode from the program may also be
// invalid. So the records cover the format's rules and its exceptions.
func fuzzRecs(data []byte) []Rec {
	if len(data) < 16 {
		return nil
	}
	var prog [4]isa.Inst
	for i := range prog {
		b := data[4*i : 4*i+4]
		prog[i] = isa.Inst{
			Op: isa.Opcode(int(b[0]) % (isa.NumOpcodes + 2)),
			Rd: isa.Reg(b[1] & 31), Rs1: isa.Reg(b[1] >> 5), Rs2: isa.Reg(b[2] & 31),
			Imm: int64(int8(b[3])) * isa.InstBytes,
		}
	}
	var recs []Rec
	pc := isa.TextBase
	for b := data[16:]; len(b) >= 3; b = b[3:] {
		in := prog[(pc/isa.InstBytes)%uint64(len(prog))]
		r := Rec{
			Seq: uint64(len(recs)), PC: pc,
			Op: in.Op, Rd: in.Rd, Rs1: in.Rs1, Rs2: in.Rs2, Imm: in.Imm,
			Target: pc + isa.InstBytes,
		}
		v := uint64(b[0]) * 0x0101_0101_0101_0101 >> (b[1] & 63)
		switch {
		case in.Op.IsLoad() || in.Op.IsStore():
			r.Addr, r.Val = isa.DataBase+v&0xfff8, v
		case in.Op.IsBranch():
			r.Taken = b[1]&1 != 0
			if r.Taken {
				r.Target = pc + uint64(in.Imm)
			}
		case in.Op == isa.JAL:
			r.Val, r.Taken, r.Target = pc+isa.InstBytes, true, pc+uint64(in.Imm)
		case in.Op == isa.JALR:
			r.Val, r.Taken, r.Target = pc+isa.InstBytes, true, isa.TextBase+uint64(b[0]%8)*isa.InstBytes
		case in.Op == isa.LI:
			r.Val = uint64(in.Imm)
		case in.Op.WritesRd():
			r.Val = v
		}
		if b[2] >= 0xf0 {
			switch b[2] & 0xf {
			case 0:
				r.PC += isa.InstBytes
			case 1:
				r.Rd ^= 1
			case 2:
				r.Imm++
			case 3:
				r.Val ^= 1
			case 4:
				r.Addr ^= 1
			case 5:
				r.Taken = !r.Taken
			case 6:
				r.Target += isa.InstBytes
			case 7:
				r.Op = isa.Opcode(255)
			default:
				r.PC, r.Val, r.Addr, r.Target = v, v, ^v, v*3
			}
		}
		recs = append(recs, r)
		pc = r.Target
	}
	return recs
}

// FuzzRoundTrip encodes records built from fuzz bytes (fuzzRecs) as one
// block and as a file, and decodes both: each must give the records back
// exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("\x02\x25\x06\x00\x18\x41\x00\x08\x1d\x05\x00\xfd\x21\x20\x00\xfc" +
		"\x01\x02\x00\x03\x05\x00\x07\x01\x00\x09\x08\x00"))
	f.Add([]byte("\x1c\x0a\x00\x01\x22\x00\x00\x02\x23\x01\x00\xff\x01\x01\x01\x01" +
		"\x10\x20\xf0\x30\x40\xf1\x50\x60\xf3\x70\x80\xf5\x90\xa0\xf6\xb0\xc0\xf7\xd0\xe0\xf9"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := fuzzRecs(data)
		got, err := DecodeBlock(nil, encodeBlock(recs), 0, len(recs))
		if err != nil || !slices.Equal(got, recs) {
			t.Fatalf("block: decoded %d records (err %v), want the %d encoded:\n got %v\nwant %v", len(got), err, len(recs), got, recs)
		}
		r := NewReader(bytes.NewReader(writeFile(t, recs)))
		if got := Collect(r, 0); r.Err() != nil || !slices.Equal(got, recs) {
			t.Fatalf("file: read %d records (err %v), want the %d written", len(got), r.Err(), len(recs))
		}
	})
}

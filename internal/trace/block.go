package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"valuepred/internal/isa"
)

// The block format (DESIGN.md §13) is the one encoding of a record
// sequence: internal/chunk stores each chunk as one block, and a trace
// file (Writer, Reader) is a sequence of them. A block stores each static
// instruction it touches once, in a dictionary, and per record only what
// the program cannot tell:
//
//	magic "VPB1"
//	uvarint  record count
//	uvarint  first PC
//	uvarint  dictionary entries, then per entry in first-use order:
//	         varint PC delta from the previous entry's (the first PC's),
//	         op, rd, rs1, rs2 bytes, varint imm
//	uvarint  exception records, then per exception its index as a
//	         uvarint gap from the previous one's (the first from -1)
//	uvarint  taken bits, then their bytes, LSB first: one per
//	         conditional branch that is not an exception
//	the records' dynamic fields, in order
//
// A record's PC is the previous record's Target (the first PC for the
// first record), and its static fields are its PC's dictionary entry.
// What a record stores follows from its opcode (see kindOf): a memory op
// its Addr then Val, any other op that writes a register its Val, a JALR
// its Target as a varint delta from its PC, and nothing else. The rest is
// derived: a JAL's or JALR's Val is PC+4, an LI's its Imm, a branch's
// Target follows from its Imm and taken bit, a jump is taken, and every
// other Val, Addr, Taken and Target is zero, zero, false and PC+4.
//
// A record those rules do not describe — another PC, static fields that
// differ from its PC's entry, a field other than the derived one, an
// opcode at or past isa.NumOpcodes — is an exception: its index is listed
// and its fields are all stored in its place, as
//
//	varint PC delta from the previous record's Target, op, rd, rs1, rs2
//	bytes, varint imm, uvarint Val, uvarint Addr, a Taken byte (0 or 1),
//	varint Target delta from its PC
//
// so the format is lossless for any record sequence with consecutive Seq.
// The emulator's traces have no exceptions.

var blockMagic = [4]byte{'V', 'P', 'B', '1'}

// kind names which dynamic fields a record of an opcode stores.
type kind uint8

const (
	kindNone   kind = iota // nothing: HALT, NOP, BAD
	kindVal                // Val: ALU ops other than LI
	kindLI                 // nothing: Val is the immediate
	kindMem                // Addr, then Val: loads and stores
	kindBranch             // a taken bit
	kindJAL                // nothing: Val is PC+4, Target PC+Imm
	kindJALR               // Target as a delta from PC; Val is PC+4
)

// kindOf returns op's kind; op must be below isa.NumOpcodes.
func kindOf(op isa.Opcode) kind {
	switch {
	case op.IsLoad() || op.IsStore():
		return kindMem
	case op.IsBranch():
		return kindBranch
	case op == isa.JAL:
		return kindJAL
	case op == isa.JALR:
		return kindJALR
	case op == isa.LI:
		return kindLI
	case op.WritesRd():
		return kindVal
	}
	return kindNone
}

// kinds holds kindOf for every opcode byte. The rows past NumOpcodes read
// kindNone, and no record with such an opcode is ever decoded by its
// kind: it is always an exception.
var kinds = func() (t [256]kind) {
	for op := range isa.NumOpcodes {
		t[op] = kindOf(isa.Opcode(op))
	}
	return t
}()

// derives reports whether every field of r that kind k does not store is
// the one the format derives.
func derives(r *Rec, k kind) bool {
	next := r.PC + isa.InstBytes
	switch k {
	case kindNone:
		return r.Val == 0 && r.Addr == 0 && !r.Taken && r.Target == next
	case kindVal:
		return r.Addr == 0 && !r.Taken && r.Target == next
	case kindLI:
		return r.Val == uint64(r.Imm) && r.Addr == 0 && !r.Taken && r.Target == next
	case kindMem:
		return !r.Taken && r.Target == next
	case kindBranch:
		if r.Taken {
			next = r.PC + uint64(r.Imm)
		}
		return r.Val == 0 && r.Addr == 0 && r.Target == next
	case kindJAL:
		return r.Val == next && r.Addr == 0 && r.Taken && r.Target == r.PC+uint64(r.Imm)
	default: // kindJALR
		return r.Val == next && r.Addr == 0 && r.Taken
	}
}

// static is a dictionary entry as the encoder keeps it.
type static struct {
	pc uint64
	in isa.Inst
}

// Encoder encodes record sequences as blocks. It keeps its scratch from
// one block to the next, so encoding a trace block by block allocates only
// while that scratch grows. The zero Encoder is ready to use.
type Encoder struct {
	index map[uint64]int // PC -> dictionary entry of the current block
	dict  []static
	exc   []int
	bits  []byte
	body  []byte
}

// AppendBlock appends recs to dst as one block and returns the extended
// slice. The records' Seq fields are not stored: a decoder numbers them
// consecutively from the Seq it is given.
func (e *Encoder) AppendBlock(dst []byte, recs []Rec) []byte {
	if e.index == nil {
		e.index = make(map[uint64]int)
	}
	clear(e.index)
	e.dict, e.exc, e.bits, e.body = e.dict[:0], e.exc[:0], e.bits[:0], e.body[:0]
	var first uint64
	if len(recs) > 0 {
		first = recs[0].PC
	}
	pc, nbits := first, 0
	for i := range recs {
		r := &recs[i]
		k := kinds[r.Op]
		if !e.fits(r, pc, k) {
			e.exc = append(e.exc, i)
			e.body = appendException(e.body, r, pc)
			pc = r.Target
			continue
		}
		switch k {
		case kindVal:
			e.body = binary.AppendUvarint(e.body, r.Val)
		case kindMem:
			e.body = binary.AppendUvarint(binary.AppendUvarint(e.body, r.Addr), r.Val)
		case kindJALR:
			e.body = binary.AppendVarint(e.body, int64(r.Target-r.PC))
		case kindBranch:
			if nbits%8 == 0 {
				e.bits = append(e.bits, 0)
			}
			if r.Taken {
				e.bits[nbits/8] |= 1 << (nbits % 8)
			}
			nbits++
		}
		pc = r.Target
	}

	dst = append(dst, blockMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	dst = binary.AppendUvarint(dst, first)
	dst = binary.AppendUvarint(dst, uint64(len(e.dict)))
	prev := first
	for _, s := range e.dict {
		dst = binary.AppendVarint(dst, int64(s.pc-prev))
		dst = append(dst, byte(s.in.Op), byte(s.in.Rd), byte(s.in.Rs1), byte(s.in.Rs2))
		dst = binary.AppendVarint(dst, s.in.Imm)
		prev = s.pc
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.exc)))
	last := -1
	for _, i := range e.exc {
		dst = binary.AppendUvarint(dst, uint64(i-last-1))
		last = i
	}
	dst = binary.AppendUvarint(dst, uint64(nbits))
	dst = append(dst, e.bits...)
	return append(dst, e.body...)
}

// fits reports whether r, expected at pc and of kind k, is described by
// the format's rules, and if so makes sure its PC has a dictionary entry.
func (e *Encoder) fits(r *Rec, pc uint64, k kind) bool {
	if r.PC != pc || int(r.Op) >= isa.NumOpcodes || !derives(r, k) {
		return false
	}
	in := isa.Inst{Op: r.Op, Rd: r.Rd, Rs1: r.Rs1, Rs2: r.Rs2, Imm: r.Imm}
	if j, ok := e.index[r.PC]; ok {
		return e.dict[j].in == in
	}
	e.index[r.PC] = len(e.dict)
	e.dict = append(e.dict, static{pc: r.PC, in: in})
	return true
}

// appendException appends every field of r, expected at pc.
func appendException(b []byte, r *Rec, pc uint64) []byte {
	b = binary.AppendVarint(b, int64(r.PC-pc))
	b = append(b, byte(r.Op), byte(r.Rd), byte(r.Rs1), byte(r.Rs2))
	b = binary.AppendVarint(b, r.Imm)
	b = binary.AppendUvarint(b, r.Val)
	b = binary.AppendUvarint(b, r.Addr)
	taken := byte(0)
	if r.Taken {
		taken = 1
	}
	b = append(b, taken)
	return binary.AppendVarint(b, int64(r.Target-r.PC))
}

// indexPool holds the PC indexes DecodeBlock builds, so that decoding
// block after block allocates none once the pool is warm.
var indexPool = sync.Pool{New: func() any { return new([]int32) }}

// DecodeBlock appends to dst the records of data, one block, numbering
// them from firstSeq. A block that claims more than max records is an
// error before anything is allocated. On any error DecodeBlock appends
// nothing: a block decodes whole or not at all. It is the format's only
// decoder; internal/chunk decodes each chunk with it and Reader each block
// of a file.
//
// It keeps no dictionary of its own. A record at a PC the block has not
// reached before takes the next dictionary entry, which must be for that
// PC, and a PC index remembers the latest record at each PC in dst, from
// which the next record there copies its static fields.
func DecodeBlock(dst []Rec, data []byte, firstSeq uint64, max int) ([]Rec, error) {
	if len(data) < len(blockMagic) || [4]byte(data[:len(blockMagic)]) != blockMagic {
		return dst, fmt.Errorf("trace: bad block magic %q", data[:min(len(data), len(blockMagic))])
	}
	d := decoder{b: data, i: len(blockMagic)}
	count, first, ndict := d.uvarint(), d.uvarint(), d.uvarint()
	switch {
	case d.err != nil:
		return dst, d.err
	case count > uint64(max) || count > math.MaxInt32: // the PC index holds int32 positions
		return dst, fmt.Errorf("trace: block claims %d records, more than its cap of %d", count, max)
	case ndict > count:
		return dst, fmt.Errorf("trace: block claims %d dictionary entries for %d records", ndict, count)
	}
	n := int(count)

	// The dictionary and the exception list are each read twice: once
	// here to check them and find where they end, then an entry at a time
	// as the records reach them.
	dict := decoder{b: data, i: d.i}
	for range ndict {
		d.varint()
		d.skip(4) // op, rd, rs1, rs2: checked when the entry is read
		d.varint()
	}
	nexc := d.uvarint()
	exc := decoder{b: data, i: d.i}
	for at := -1; nexc > 0 && d.err == nil; nexc-- {
		gap := d.uvarint()
		if gap >= uint64(n-at-1) {
			return dst, fmt.Errorf("trace: block lists an exception past its %d records", n)
		}
		at += 1 + int(gap)
	}
	excEnd := d.i
	nbits := d.uvarint()
	if d.err != nil {
		return dst, d.err
	}
	if nbits > count || (nbits+7)/8 > uint64(len(data)-d.i) {
		return dst, fmt.Errorf("trace: block claims %d taken bits for %d records in %d bytes", nbits, count, len(data))
	}
	bits := data[d.i : d.i+int(nbits+7)/8]
	d.i += len(bits)

	ip := indexPool.Get().(*[]int32)
	defer indexPool.Put(ip)
	size := 2
	for size < 2*int(ndict) {
		size *= 2
	}
	*ip = slices.Grow((*ip)[:0], size)[:size]
	index := *ip
	clear(index)

	base := len(dst)
	dst = slices.Grow(dst, n)
	out := dst[base : base+n]
	next := n // index of the next exception, n once there is none
	if exc.i < excEnd {
		next = int(exc.uvarint())
	}
	pc, dpc := first, first // the next record's PC; the last dictionary entry's
	used, k := uint64(0), 0 // dictionary entries and taken bits read
	for i := range out {
		r := &out[i]
		if i == next {
			d.exception(r, pc)
			r.Seq = firstSeq + uint64(i)
			pc = r.Target
			next = n
			if exc.i < excEnd {
				next = i + 1 + int(exc.uvarint())
			}
			if d.err != nil {
				return dst[:base], d.err
			}
			continue
		}
		s := int(pc*0x9e3779b97f4a7c15>>32) & (size - 1)
		for index[s] != 0 && out[index[s]-1].PC != pc {
			s = (s + 1) & (size - 1)
		}
		if x := index[s]; x != 0 {
			t := &out[x-1]
			*r = Rec{PC: pc, Op: t.Op, Rd: t.Rd, Rs1: t.Rs1, Rs2: t.Rs2, Imm: t.Imm}
			index[s] = int32(i + 1) // the latest record at pc is the likeliest in cache
		} else {
			// The PC's first record: the next dictionary entry is its.
			if used == ndict {
				return dst[:base], fmt.Errorf("trace: record %d: PC %#x has no dictionary entry", firstSeq+uint64(i), pc)
			}
			dpc += uint64(dict.varint())
			op, rd, rs1, rs2 := dict.u8(), dict.u8(), dict.u8(), dict.u8()
			imm := dict.varint()
			used++
			switch {
			case dpc != pc:
				return dst[:base], fmt.Errorf("trace: record %d: PC %#x, but dictionary entry %d is for %#x", firstSeq+uint64(i), pc, used-1, dpc)
			case int(op) >= isa.NumOpcodes:
				return dst[:base], fmt.Errorf("trace: dictionary entry %d has opcode %d", used-1, op)
			}
			index[s] = int32(i + 1)
			*r = Rec{PC: pc, Op: isa.Opcode(op), Rd: isa.Reg(rd), Rs1: isa.Reg(rs1), Rs2: isa.Reg(rs2), Imm: imm}
		}
		r.Seq = firstSeq + uint64(i)
		r.Target = pc + isa.InstBytes
		switch kinds[r.Op] {
		case kindVal:
			r.Val = d.uvarint()
		case kindMem:
			r.Addr = d.uvarint()
			r.Val = d.uvarint()
		case kindLI:
			r.Val = uint64(r.Imm)
		case kindBranch:
			if uint64(k) >= nbits {
				return dst[:base], fmt.Errorf("trace: record %d: more branches than the block's %d taken bits", firstSeq+uint64(i), nbits)
			}
			if bits[k/8]>>(k%8)&1 != 0 {
				r.Taken, r.Target = true, pc+uint64(r.Imm)
			}
			k++
		case kindJAL:
			r.Val, r.Taken, r.Target = pc+isa.InstBytes, true, pc+uint64(r.Imm)
		case kindJALR:
			r.Val, r.Taken, r.Target = pc+isa.InstBytes, true, pc+uint64(d.varint())
		}
		if d.err != nil {
			return dst[:base], d.err
		}
		pc = r.Target
	}
	switch {
	case used != ndict:
		return dst[:base], fmt.Errorf("trace: block uses %d of its %d dictionary entries", used, ndict)
	case uint64(k) != nbits:
		return dst[:base], fmt.Errorf("trace: block has %d taken bits for %d branches", nbits, k)
	case d.i != len(data):
		return dst[:base], fmt.Errorf("trace: %d bytes after the block's last record", len(data)-d.i)
	}
	return dst[:base+n], nil
}

// decoder reads the fields of a block. The first field that b cuts short
// or that overflows 64 bits sets err, and every read after it returns 0.
type decoder struct {
	b   []byte
	i   int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.i < len(d.b) && d.b[d.i] < 0x80 {
		v := uint64(d.b[d.i])
		d.i++
		return v
	}
	return d.uvarintSlow()
}

func (d *decoder) uvarintSlow() uint64 {
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		d.fail(n)
		return 0
	}
	d.i += n
	return v
}

func (d *decoder) skip(n int) {
	if len(d.b)-d.i < n {
		d.fail(0)
		return
	}
	d.i += n
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) u8() byte {
	if d.i >= len(d.b) {
		d.fail(0)
		return 0
	}
	d.i++
	return d.b[d.i-1]
}

// fail records why a read at d.i failed: n == 0, the bytes end inside the
// field, or n < 0, the field overflows 64 bits. It moves d.i to the end.
func (d *decoder) fail(n int) {
	if d.err == nil {
		if n == 0 {
			d.err = fmt.Errorf("trace: block truncated at byte %d: %w", d.i, io.ErrUnexpectedEOF)
		} else {
			d.err = fmt.Errorf("trace: varint at byte %d overflows 64 bits", d.i)
		}
	}
	d.i = len(d.b)
}

// exception reads a record stored with every field, expected at pc.
func (d *decoder) exception(r *Rec, pc uint64) {
	pc += uint64(d.varint())
	op, rd, rs1, rs2 := d.u8(), d.u8(), d.u8(), d.u8()
	imm := d.varint()
	val, addr := d.uvarint(), d.uvarint()
	taken := d.u8()
	target := pc + uint64(d.varint())
	if taken > 1 && d.err == nil {
		d.err = fmt.Errorf("trace: exception record's taken byte is %d", taken)
	}
	*r = Rec{
		PC: pc, Op: isa.Opcode(op), Rd: isa.Reg(rd), Rs1: isa.Reg(rs1), Rs2: isa.Reg(rs2), Imm: imm,
		Val: val, Addr: addr, Taken: taken == 1, Target: target,
	}
}

package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"valuepred/internal/isa"
)

// The binary trace format is a sequence of varint-delta-encoded records
// preceded by a small header. It exists so that cmd/vptrace can persist
// traces and other tools can re-read them without re-running the emulator.

var magic = [4]byte{'V', 'P', 'T', '1'}

// Writer encodes trace records to an underlying stream.
type Writer struct {
	w       *bufio.Writer
	started bool
	lastPC  uint64
	buf     []byte
	n       uint64
}

// NewWriter returns a Writer emitting the binary trace format to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, binary.MaxVarintLen64)}
}

func (tw *Writer) putUvarint(v uint64) error {
	n := binary.PutUvarint(tw.buf, v)
	_, err := tw.w.Write(tw.buf[:n])
	return err
}

func (tw *Writer) putVarint(v int64) error {
	n := binary.PutVarint(tw.buf, v)
	_, err := tw.w.Write(tw.buf[:n])
	return err
}

// Write appends one record. Records must be written in Seq order.
func (tw *Writer) Write(r Rec) error {
	if !tw.started {
		if _, err := tw.w.Write(magic[:]); err != nil {
			return err
		}
		tw.started = true
	}
	// PC is delta-encoded against the previous record's PC: sequential code
	// compresses to one byte per field.
	if err := tw.putVarint(int64(r.PC) - int64(tw.lastPC)); err != nil {
		return err
	}
	tw.lastPC = r.PC
	flags := uint64(0)
	if r.Taken {
		flags = 1
	}
	head := uint64(r.Op) | uint64(r.Rd)<<8 | uint64(r.Rs1)<<16 | uint64(r.Rs2)<<24 | flags<<32
	if err := tw.putUvarint(head); err != nil {
		return err
	}
	if err := tw.putVarint(r.Imm); err != nil {
		return err
	}
	if err := tw.putUvarint(r.Val); err != nil {
		return err
	}
	if err := tw.putUvarint(r.Addr); err != nil {
		return err
	}
	if r.Op.IsControl() {
		if err := tw.putUvarint(r.Target); err != nil {
			return err
		}
	}
	tw.n++
	return nil
}

// Flush writes any buffered data to the underlying stream.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.n }

// Reset redirects the Writer at w and restores the initial encoder state
// (magic not yet emitted, PC delta base zero, record count zero), so one
// Writer — and its internal buffers — can encode many independent streams.
// internal/chunk uses this to encode each chunk as a self-contained trace
// without allocating a fresh Writer per chunk.
func (tw *Writer) Reset(w io.Writer) {
	tw.w.Reset(w)
	tw.started = false
	tw.lastPC = 0
	tw.n = 0
}

// Reader decodes the binary trace format from an io.Reader and implements
// Source. It decodes each record in place in its buffered reader's window
// with the same function that DecodeBlock uses on a byte slice.
type Reader struct {
	r      *bufio.Reader
	seq    uint64
	lastPC uint64
	header bool
	err    error
}

// NewReader returns a Reader over the binary trace format in r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Err returns the first decoding error other than a clean end of trace.
func (tr *Reader) Err() error { return tr.err }

// Next implements Source.
func (tr *Reader) Next() (Rec, bool) {
	if tr.err != nil {
		return Rec{}, false
	}
	if !tr.header {
		b, err := tr.r.Peek(len(magic))
		n, herr := header(b)
		if n == 0 {
			tr.fail(err, herr)
			return Rec{}, false
		}
		_, _ = tr.r.Discard(n) // cannot fail: the n bytes were just peeked
		tr.header = true
	}
	// Peek returns fewer than maxRecLen bytes only with an error, usually
	// io.EOF at the end of the stream.
	b, err := tr.r.Peek(maxRecLen)
	var r Rec
	n, derr := decodeRec(&r, b, tr.seq, tr.lastPC)
	if n == 0 {
		tr.fail(err, derr)
		return Rec{}, false
	}
	_, _ = tr.r.Discard(n) // cannot fail: the n bytes were just peeked
	tr.lastPC = r.PC
	tr.seq++
	return r, true
}

// fail records why the stream stopped: the read error that cut its bytes
// short if there was one, else the decoding error. A clean end of stream
// records nothing.
func (tr *Reader) fail(read, decode error) {
	if read != nil && !errors.Is(read, io.EOF) {
		tr.err = read
	} else {
		tr.err = decode
	}
}

// maxRecLen bounds one encoded record: at most six varint fields.
const maxRecLen = 6 * binary.MaxVarintLen64

// header returns how many bytes the magic header at the front of b takes:
// 0 for empty input (an empty stream), an error for a bad magic.
func header(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	if len(b) < len(magic) || [4]byte(b[:len(magic)]) != magic {
		return 0, fmt.Errorf("trace: bad magic %q", b[:min(len(b), len(magic))])
	}
	return len(magic), nil
}

// DecodeBlock appends to dst the records of data, a self-contained stream
// in the binary trace format, numbering them from firstSeq. Empty data is
// an empty stream. On an error it returns the records decoded before it.
// internal/chunk decodes each chunk with it.
func DecodeBlock(dst []Rec, data []byte, firstSeq uint64) ([]Rec, error) {
	i, err := header(data)
	if err != nil {
		return dst, err
	}
	seq, lastPC := firstSeq, uint64(0)
	for i < len(data) {
		dst = append(dst, Rec{})
		r := &dst[len(dst)-1]
		n, err := decodeRec(r, data[i:], seq, lastPC)
		if err != nil {
			return dst[:len(dst)-1], err
		}
		i += n
		lastPC = r.PC
		seq++
	}
	return dst, nil
}

// decodeRec decodes the record at the front of b into r, numbering it seq
// and reading its PC as a delta from lastPC, and returns the bytes it
// took: 0 for empty b, the end of the stream. It reads each varint by
// index; a field that b cuts short or that overflows 64 bits is an error.
// This is the format's only record decoder.
func decodeRec(r *Rec, b []byte, seq, lastPC uint64) (int, error) {
	dpc, i := binary.Varint(b)
	if i <= 0 {
		if len(b) == 0 {
			return 0, nil
		}
		return 0, fieldErr(b, i, seq)
	}
	head, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, fieldErr(b[i:], n, seq)
	}
	i += n
	imm, n := binary.Varint(b[i:])
	if n <= 0 {
		return 0, fieldErr(b[i:], n, seq)
	}
	i += n
	val, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, fieldErr(b[i:], n, seq)
	}
	i += n
	addr, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, fieldErr(b[i:], n, seq)
	}
	i += n
	op := isa.Opcode(head & 0xff)
	pc := uint64(int64(lastPC) + dpc)
	target := pc + isa.InstBytes
	if op.IsControl() {
		if target, n = binary.Uvarint(b[i:]); n <= 0 {
			return 0, fieldErr(b[i:], n, seq)
		}
		i += n
	}
	*r = Rec{
		Seq: seq, PC: pc, Op: op,
		Rd: isa.Reg(head >> 8 & 0xff), Rs1: isa.Reg(head >> 16 & 0xff), Rs2: isa.Reg(head >> 24 & 0xff),
		Imm: imm, Val: val, Addr: addr, Taken: head>>32&1 != 0, Target: target,
	}
	return i, nil
}

// fieldErr names why a varint read of b returned n <= 0: b cuts the field
// short, or the field runs past MaxVarintLen64 bytes or 64 bits.
func fieldErr(b []byte, n int, seq uint64) error {
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return fmt.Errorf("trace: truncated record %d: %w", seq, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("trace: record %d: varint overflows 64 bits", seq)
}

package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// A trace file is the magic "VPT2", then blocks (block.go), each prefixed
// by its byte length as a uvarint and holding at most fileBlockRecs
// records. It exists so that cmd/vptrace can persist traces and other
// tools can re-read them without re-running the emulator. A file is read
// one block at a time, so it is written and read in constant memory.

var fileMagic = [4]byte{'V', 'P', 'T', '2'}

// fileBlockRecs is the most records one block of a file holds.
const fileBlockRecs = 8192

// maxBlockBytes bounds one encoded block of a file, so a corrupt length
// prefix cannot make the Reader allocate without limit. A record takes at
// most 57 bytes (an exception record's 55 and its index's 2) or, if it is
// not one, 20 and a dictionary entry of at most 24, so 80 bytes a record
// and 64 for the header is a safe bound.
const maxBlockBytes = 80*fileBlockRecs + 64

// Writer encodes trace records to a file, a block at a time.
type Writer struct {
	w       io.Writer
	enc     Encoder
	recs    []Rec // records of the block being filled
	blk     []byte
	out     []byte
	n       uint64
	started bool
}

// NewWriter returns a Writer emitting a trace file to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write appends one record. Records must be written in Seq order, with
// consecutive Seq: a reader numbers them from 0.
func (tw *Writer) Write(r Rec) error {
	tw.recs = append(tw.recs, r)
	tw.n++
	if len(tw.recs) == fileBlockRecs {
		return tw.Flush()
	}
	return nil
}

// Flush writes the records written since the last Flush as one block, and
// the file's magic if this is the first write, to the underlying stream.
func (tw *Writer) Flush() error {
	out := tw.out[:0]
	if !tw.started {
		out = append(out, fileMagic[:]...)
	}
	if len(tw.recs) > 0 {
		tw.blk = tw.enc.AppendBlock(tw.blk[:0], tw.recs)
		out = append(binary.AppendUvarint(out, uint64(len(tw.blk))), tw.blk...)
		tw.recs = tw.recs[:0]
	}
	tw.out = out
	if len(out) == 0 {
		return nil
	}
	tw.started = true
	_, err := tw.w.Write(out)
	return err
}

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.n }

// Reader decodes a trace file from an io.Reader. It decodes one block at
// a time and lends its records in place, as a Viewer.
type Reader struct {
	r      *bufio.Reader
	header bool
	data   []byte // the current block
	recs   []Rec  // its records
	pos    int    // next record in recs
	seq    uint64 // Seq of the next block's first record
	err    error
}

var _ Viewer = (*Reader)(nil)

// NewReader returns a Reader over the trace file in r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Err returns the first error other than a clean end of the file: a read
// error, or a block cut short or that does not decode. The records of the
// blocks before it have been served; none of its own are.
func (tr *Reader) Err() error { return tr.err }

// Next implements Source.
func (tr *Reader) Next() (Rec, bool) {
	if tr.pos >= len(tr.recs) && !tr.fill() {
		return Rec{}, false
	}
	tr.pos++
	return tr.recs[tr.pos-1], true
}

// View implements Viewer. The view is valid until the next call on the
// Reader, which may decode the next block over it.
func (tr *Reader) View(n int) []Rec {
	if tr.pos >= len(tr.recs) && !tr.fill() {
		return nil
	}
	n = min(max(n, 0), len(tr.recs)-tr.pos)
	v := tr.recs[tr.pos : tr.pos+n : tr.pos+n]
	tr.pos += n
	return v
}

// fill reads and decodes the next block that holds a record. It reports
// false at the end of the file or at the first error.
func (tr *Reader) fill() bool {
	tr.recs, tr.pos = tr.recs[:0], 0
	if !tr.header {
		var m [len(fileMagic)]byte
		switch n, err := io.ReadFull(tr.r, m[:]); {
		case n == 0 && errors.Is(err, io.EOF):
			return false // an empty stream holds no records
		case err != nil && !errors.Is(err, io.ErrUnexpectedEOF):
			tr.err = err
			return false
		case m != fileMagic:
			tr.err = fmt.Errorf("trace: not a %s trace file: magic %q", fileMagic[:], m[:n])
			return false
		}
		tr.header = true
	}
	for tr.err == nil && len(tr.recs) == 0 {
		size, err := binary.ReadUvarint(tr.r)
		if errors.Is(err, io.EOF) {
			return false
		}
		if err == nil && size > maxBlockBytes {
			err = fmt.Errorf("trace: block of %d bytes, more than %d", size, maxBlockBytes)
		}
		if err == nil {
			tr.data = slices.Grow(tr.data[:0], int(size))[:size]
			_, err = io.ReadFull(tr.r, tr.data)
		}
		if err == nil {
			tr.recs, err = DecodeBlock(tr.recs, tr.data, tr.seq, fileBlockRecs)
			tr.seq += uint64(len(tr.recs))
		}
		if err != nil {
			tr.err = fmt.Errorf("trace: block at record %d: %w", tr.seq, err)
		}
	}
	return len(tr.recs) > 0
}

package chunk

import (
	"fmt"

	"valuepred/internal/trace"
)

// Cursor streams a prefix of a Seq as a trace.Source. Each Cursor is
// single-goroutine: it owns one pooled Chunk as its decode buffer, decodes
// blocks into it on demand, and returns the Chunk to the pool when the
// stream ends — so N concurrent cursors over the same Seq cost N chunks of
// decoded records, not N trace copies. Records returned by Next are copies
// and may be retained by the caller indefinitely; View lends them in place
// (see trace.Viewer).
//
// A Cursor abandoned before end of stream simply drops its buffer to the
// garbage collector; Put-back is an optimization, not a correctness
// requirement.
type Cursor struct {
	seq    *Seq
	limit  int    // records to serve (prefix length)
	served int    // records handed out so far
	base   int    // records in blocks[:block], i.e. Seq number of the next block's first record
	block  int    // next block to decode
	buf    *Chunk // pooled decode buffer; nil before first fill and after release
	// cur is the served part of the current decoded chunk. It aliases
	// buf.Recs, which this Cursor owns until release; View lends parts of
	// it until the next call.
	cur []trace.Rec
	pos int // next index in cur
	err error
}

// NewCursor returns a Source over the first n records of q (n > q.Len() is
// clamped; n <= 0 yields an empty source). Cursors are cheap: many cells
// holding cursors into one shared Seq is the intended sharing model.
func NewCursor(q *Seq, n int) *Cursor {
	if n > q.Len() {
		n = q.Len()
	}
	if n < 0 {
		n = 0
	}
	return &Cursor{seq: q, limit: n}
}

// Len returns the total number of records the cursor will serve, so
// trace.Collect can size its output up front.
func (c *Cursor) Len() int { return c.limit }

// Err returns the first decode error, if any: a block that does not
// decode, or one that decodes to another number of records than the Seq
// says it holds. A Seq built by Build cannot produce one; Err exists so
// corruption is loud rather than a silent truncation.
func (c *Cursor) Err() error { return c.err }

// Next implements trace.Source. The returned record is a copy.
func (c *Cursor) Next() (trace.Rec, bool) {
	if c.pos >= len(c.cur) && !c.fill() {
		return trace.Rec{}, false
	}
	r := c.cur[c.pos]
	c.pos++
	c.served++
	return r, true
}

var _ trace.Viewer = (*Cursor)(nil)

// View implements trace.Viewer: it lends up to n next records of the
// current decoded chunk in place. The view is valid until the next call
// on the cursor, which may decode the next block over it or, at the end
// of the stream, return the chunk to the pool.
func (c *Cursor) View(n int) []trace.Rec {
	if c.pos >= len(c.cur) && !c.fill() {
		return nil
	}
	n = min(max(n, 0), len(c.cur)-c.pos)
	v := c.cur[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	c.served += n
	return v
}

// fill decodes the next block into the pooled buffer and points cur at the
// prefix of it that is still within the cursor's limit. A block's record
// count is not trusted: one that disagrees with the decoded records is an
// error, since the next block's records are numbered from it.
func (c *Cursor) fill() bool {
	if c.served >= c.limit || c.block >= len(c.seq.blocks) || c.err != nil {
		c.release()
		return false
	}
	if c.buf == nil {
		c.buf = getChunk()
	}
	b := c.seq.blocks[c.block]
	// A record can take no bytes at all, so the block's length does not
	// bound its count: the Seq's count for it caps the count its header
	// claims, before DecodeBlock sizes the buffer to it.
	recs, err := trace.DecodeBlock(c.buf.Recs[:0], b.data, uint64(c.base), b.n)
	c.buf.Recs = recs
	if err == nil && len(recs) != b.n {
		err = fmt.Errorf("chunk: block %d holds %d records, not %d", c.block, len(recs), b.n)
	}
	if err != nil {
		c.err = err
		c.release()
		return false
	}
	c.base += b.n
	c.block++
	need := c.limit - c.served
	if need < len(recs) {
		c.cur = recs[:need]
	} else {
		c.cur = recs
	}
	c.pos = 0
	return len(c.cur) > 0
}

// release returns the decode buffer to the pool and drops every alias into
// it, so a drained cursor holds no chunk memory.
func (c *Cursor) release() {
	c.cur = nil
	c.pos = 0
	if c.buf != nil {
		putChunk(c.buf)
		c.buf = nil
	}
}

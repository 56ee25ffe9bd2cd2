// Package chunk implements the streaming trace pipeline (DESIGN.md §13):
// fixed-size reusable chunks of decoded trace records, immutable compressed
// chunk sequences for the tracestore, and bounded sliding windows for the
// fetch engines. It replaces "materialize the whole trace as one flat
// []trace.Rec" with "hold at most a few chunks in flight", which bounds a
// simulation's peak memory by the chunk-pool size instead of the trace
// length and makes paper-scale (100M-instruction) runs practical.
//
// Ownership contract (the full lifecycle is drawn in DESIGN.md §13):
//
//   - A Chunk is owned by exactly one goroutine between acquire (getChunk)
//     and release (putChunk). It is reset at every acquire by assigning a
//     literal that keeps only Recs's capacity, so no record from one use
//     can leak into the next; TestChunkResetLeavesNoState pins it.
//   - A Seq is immutable once Build returns. Any number of concurrent
//     Cursors may read it; nobody may mutate it. This is what lets many
//     experiment cells share one cached trace at chunk granularity.
//   - A Cursor owns one pooled Chunk at a time as its decode buffer and
//     returns it to the pool at end of stream. Records handed out by Next
//     are copies; callers may keep them forever. Records lent by View
//     alias the decode buffer and are valid only until the next call on
//     the cursor: that call may decode the next block over them or, at
//     the end of the stream, return the buffer to the pool. A caller that
//     needs a view longer copies it first.
//   - Share lends one source's views to several consumers in turn. Each
//     consumer's views alias the shared block and are valid until that
//     consumer's next call on its source, as a Cursor's are; Share takes
//     the source's next view only once every live consumer has asked past
//     the current one. The consumers take turns on their goroutines, so
//     no two ever read at once, and none may write through a view.
//   - A Window owns its buffer and lends callers read-only views of it
//     (View); a view is valid only until the next Mark, mirroring the
//     fetch.Group.Recs contract. It copies a viewing source's records
//     into its buffer in bulk, so it holds no view of the source.
package chunk

import (
	"bytes"
	"slices"
	"sync"

	"valuepred/internal/trace"
)

// DefaultSize is the default number of records per chunk. At 64 bytes per
// decoded record a chunk is ~512 KiB — big enough to amortize codec and
// pool overhead to noise, small enough that a worker's resident set stays
// a few megabytes regardless of trace length.
const DefaultSize = 8192

// Chunk is a reusable buffer of decoded trace records — the unit of
// transfer between the emulator, the codec and the consumers. A Chunk is
// exclusively owned by its holder from getChunk to putChunk; Recs must
// never be retained across putChunk (consumers copy records out, or hold
// a Cursor's view of them only until their next call on it).
type Chunk struct {
	// Recs holds the decoded records. The slice (including its capacity)
	// belongs to the Chunk; holders append to it while they own the Chunk
	// and must not publish it elsewhere.
	Recs []trace.Rec
}

var chunkPool = sync.Pool{New: func() any { return &Chunk{} }}

// getChunk returns a Chunk with exclusive ownership, its record buffer
// reset to length zero (capacity is retained across reuses).
func getChunk() *Chunk {
	c := chunkPool.Get().(*Chunk)
	c.reset()
	return c
}

// reset names only Recs, truncated with its capacity kept, so every other
// field, one added later included, starts at zero.
func (c *Chunk) reset() { *c = Chunk{Recs: c.Recs[:0]} }

// putChunk returns c to the pool. The caller must not touch c afterwards.
func putChunk(c *Chunk) { chunkPool.Put(c) }

// block is one compressed chunk: a self-contained VPT1 stream (its own
// magic header, PC deltas restarting at zero) holding n records.
type block struct {
	data []byte
	n    int
}

// Seq is an immutable sequence of compressed chunks representing the first
// Len records of a workload's dynamic trace. Once built it is never
// mutated, so it may be shared freely: the tracestore caches one Seq per
// (workload, seed) and every cell that needs any prefix of it reads the
// same blocks through its own Cursor.
type Seq struct {
	blocks []block
	n      int // total records across blocks
	size   int // records per chunk (the last block may be short)
	nbytes int // total compressed bytes
}

// Len returns the number of records in the sequence.
func (q *Seq) Len() int { return q.n }

// Bytes returns the total compressed size of the sequence in bytes — the
// number the tracestore charges against its memory limit.
func (q *Seq) Bytes() int { return q.nbytes }

// ChunkSize returns the number of records per chunk the sequence was built
// with.
func (q *Seq) ChunkSize() int { return q.size }

// NumChunks returns the number of compressed chunks in the sequence.
func (q *Seq) NumChunks() int { return len(q.blocks) }

// Build drains up to max records from src (max <= 0 means until the
// source ends) into a compressed chunk sequence with size records per
// chunk (size <= 0 means DefaultSize). Peak memory during the build is one
// pooled Chunk plus one compressed block: the producer fills a chunk, the
// codec flattens it, and the chunk is reused for the next round — the
// uncompressed trace never exists in full.
func Build(src trace.Source, max, size int) (*Seq, error) {
	if size <= 0 {
		size = DefaultSize
	}
	q := &Seq{size: size}
	c := getChunk()
	defer putChunk(c)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for max <= 0 || q.n < max {
		want := size
		if max > 0 && max-q.n < want {
			want = max - q.n
		}
		c.Recs = slices.Grow(c.Recs[:0], want)
		for len(c.Recs) < want {
			r, ok := src.Next()
			if !ok {
				break
			}
			c.Recs = append(c.Recs, r)
		}
		if len(c.Recs) == 0 {
			break
		}
		buf.Reset()
		w.Reset(&buf)
		for _, r := range c.Recs {
			if err := w.Write(r); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		data := append([]byte(nil), buf.Bytes()...)
		q.blocks = append(q.blocks, block{data: data, n: len(c.Recs)})
		q.n += len(c.Recs)
		q.nbytes += len(data)
		if len(c.Recs) < want {
			break // source ended mid-chunk
		}
	}
	return q, nil
}

package experiment

import (
	"valuepred/internal/chunk"
	"valuepred/internal/trace"
	"valuepred/internal/tracestore"
)

// feed is one workload's dynamic trace in whichever representation the run
// selected: materialized (recs, the flat path) or streaming (seq, a shared
// immutable compressed chunk sequence). Cells only ever ask a feed for
// fresh Sources — each simulated machine consumes its own — so the two
// representations are interchangeable and byte-identical (pinned by the
// root stream tests at workers {1, 8}).
type feed struct {
	recs []trace.Rec // materialized mode; aliases the tracestore cache, read-only
	seq  *chunk.Seq  // streaming mode; immutable, shared between cells
	n    int         // records this feed serves (p.TraceLen)
}

// Len returns the number of records every source of this feed yields.
func (f feed) Len() int { return f.n }

// source returns a fresh Source over the whole feed. Each call is an
// independent replay: cells running concurrently must each take their own.
func (f feed) source() trace.Source {
	return f.prefix(f.n)
}

// prefix returns a fresh Source over the first n records (clamped to the
// feed's length). In streaming mode this is a pooled-chunk cursor; in
// materialized mode a zero-copy SliceSource, which the fetch engines
// unwrap back to the flat path.
func (f feed) prefix(n int) trace.Source {
	if n > f.n {
		n = f.n
	}
	if n < 0 {
		n = 0
	}
	if f.seq != nil {
		return chunk.NewCursor(f.seq, n)
	}
	return trace.NewSliceSource(f.recs[:n])
}

// feeds fetches the dynamic trace of every selected workload through the
// trace store, in the representation Params.Stream selects, as one plan
// grid (one cell per workload on the shared pool): cached traces return
// immediately, missing ones run one emulator each, and requests racing
// with another experiment's are deduplicated by the store. Flat feeds
// alias the cache and must be treated as read-only (every engine only
// reads its trace). A cancellation that arrives while the emulators run
// wins over any per-workload error: the caller asked the whole run to
// stop.
func (p Params) feeds() (map[string]feed, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	names := p.workloads()
	st := p.store()
	cached := st.Cached
	if p.Stream {
		cached = st.CachedStream
	}
	out := make(map[string]feed, len(names))
	if cached(names, p.Seed, p.TraceLen) {
		// Cell-granularity coarsening: when every trace is already
		// resident, a grid of per-workload cells is pure dispatch overhead
		// (each cell would grab a worker token just to take a cached
		// entry). Serve the request with plain serial loads instead — the
		// store counts the same Hits either way, and the inert probe
		// itself touches neither counters nor LRU order.
		for _, name := range names {
			f, err := p.load(st, name)
			if err != nil {
				return nil, err
			}
			out[name] = f
		}
		return out, nil
	}
	g := p.newGrid("traces")
	for _, name := range names {
		g.cell(name, "", "", func() (any, error) { return p.load(st, name) })
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		out[name] = res.get(name, "", "").(feed)
	}
	return out, nil
}

// load fetches one workload's trace for p.Seed through st, in the
// representation p.Stream selects.
func (p Params) load(st *tracestore.Store, name string) (feed, error) {
	if p.Stream {
		q, err := st.GetStream(name, p.Seed, p.TraceLen, chunk.DefaultSize)
		return feed{seq: q, n: p.TraceLen}, err
	}
	recs, err := st.Get(name, p.Seed, p.TraceLen)
	return feed{recs: recs, n: p.TraceLen}, err
}

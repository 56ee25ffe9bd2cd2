package pipeline

import (
	"sync"

	"valuepred/internal/trace"
)

// This file is the machine's memory discipline (DESIGN.md §12, "Memory
// discipline"), shared by both entry points and so by the Section 3 and
// Section 5 machines alike. Run and RunPerfectFetch keep their register
// producers in an array and hold no window, so the only per-run state they
// reuse is the store-address map, the clock ring's backing array, the
// network lookup buffer and RunPerfectFetch's group buffer, which holds
// only the groups of a bare Source and those that straddle two chunks of
// a viewing one (every other group is read in place). They come from a
// process-wide sync.Pool, which caches per-P (effectively per plan
// worker), so a worker reuses a warmed map cell after cell: building the
// map fresh in every run raised the sec3 benchmark's peak RSS from about
// 41 to about 52 MB. A scratch is
// fully reset at acquisition (map cleared, ring zeroed, buffers truncated,
// capacity kept) and owned by one run until the matching Put.
type scratch struct {
	stores map[uint64]uint64 // store address → execute cycle of its latest store
	ring   []slot            // backing array of the run's clock ring
	pcs    []uint64          // ingest's per-group network lookup buffer
	group  []trace.Rec       // RunPerfectFetch's group from a bare Source, or straddling two chunks
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{stores: make(map[uint64]uint64)}
}}

// getScratch returns a fully reset scratch with exclusive ownership.
func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	clear(s.stores)
	clear(s.ring)
	s.pcs = s.pcs[:0]
	s.group = s.group[:0]
	return s
}

// putScratch returns s to the pool. The caller must not touch s afterwards.
func putScratch(s *scratch) { scratchPool.Put(s) }

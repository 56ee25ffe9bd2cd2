package pipeline

import "sync"

// This file is the Section 5 machine's memory discipline (DESIGN.md §12,
// "Memory discipline"), mirroring internal/ideal's scratch. Run keeps its
// register producers in an array and holds no window, so the only per-run
// state it reuses is the store-address map, the clock ring's backing array
// and the network lookup buffer. They come from a process-wide sync.Pool,
// which caches per-P (effectively per plan worker), so a worker reuses a
// warmed map cell after cell: the ideal machine found that building its
// map fresh in every run raised the sec3 benchmark's peak RSS from about
// 41 to about 52 MB. A scratch is fully reset at acquisition (map cleared,
// ring zeroed, buffer truncated, capacity kept) and owned by one Run until
// the matching Put.
type scratch struct {
	stores map[uint64]uint64 // store address → execute cycle of its latest store
	ring   []slot            // backing array of the run's clock ring
	pcs    []uint64          // ingest's per-group network lookup buffer
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
	return s
}

// putScratch returns s to the pool. The caller must not touch s afterwards.
func putScratch(s *scratch) { scratchPool.Put(s) }

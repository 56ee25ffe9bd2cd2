package ideal

import "sync"

// This file is the ideal machine's memory discipline (DESIGN.md §12,
// "Memory discipline"). Run keeps its register producers in an array, so
// the only per-run state it reuses is the store-address map and the
// clock ring's backing array. They come from a process-wide sync.Pool,
// which caches per-P (effectively per plan worker), so a worker reuses a
// warmed map cell after cell: building it fresh in every run raised the
// sec3 benchmark's peak RSS from about 41 to about 52 MB. A scratch is
// fully reset at acquisition (map cleared, ring zeroed, capacity kept)
// and owned by one Run until the matching Put.
type scratch struct {
	stores map[uint64]uint64 // store address → execute cycle of its latest store
	ring   []slot            // backing array of the run's clock ring
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{stores: make(map[uint64]uint64)}
}}

// getScratch returns a fully reset scratch with exclusive ownership.
func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	clear(s.stores)
	clear(s.ring)
	return s
}

// putScratch returns s to the pool. The caller must not touch s afterwards.
func putScratch(s *scratch) { scratchPool.Put(s) }

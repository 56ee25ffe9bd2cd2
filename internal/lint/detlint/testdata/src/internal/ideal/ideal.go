// Package ideal is a detlint fixture shaped like the pooled-scratch code
// the simulation packages use (DESIGN.md §12): chunk arenas, free lists
// and a sync.Pool of per-run scratches. Pooled state is the easiest place
// to smuggle nondeterminism back in — a "randomized" reset, a wall-clock
// high-water stamp, or a map drained in iteration order into a free list —
// so the analyzer must keep firing inside code of exactly this shape.
package ideal

import (
	"math/rand"
	"sync"
	"time"
)

type entry struct{ execCycle uint64 }

type scratch struct {
	free    []*entry
	memProd map[uint64]*entry
	stamp   time.Duration
}

var pool = sync.Pool{New: func() any {
	return &scratch{memProd: make(map[uint64]*entry)}
}}

// badStampedGet stamps the scratch with wall-clock time — reporting
// metadata has no business inside a simulation scratch.
func badStampedGet() *scratch {
	s := pool.Get().(*scratch)
	start := time.Now() // want `time\.Now reads the wall clock`
	s.stamp = time.Since(start) // want `time\.Since reads the wall clock`
	return s
}

// badDrainReset recycles the map's values through the free list in map
// iteration order, so the order entries are handed back out is randomized
// per run.
func badDrainReset(s *scratch) {
	for _, p := range s.memProd { // want `map iteration order is randomized, but this loop appends to a slice`
		s.free = append(s.free, p)
	}
}

// badJitteredAlloc sizes a chunk from the global rand source.
func badJitteredAlloc() []entry {
	return make([]entry, 64+rand.Intn(64)) // want `math/rand\.Intn draws from the package-global source`
}

// goodClearReset is the discipline the real scratches follow: clear the
// map in place and truncate the free list — no per-entry iteration, no
// order to get wrong.
func goodClearReset(s *scratch) {
	clear(s.memProd)
	s.free = s.free[:0]
}

// goodCountReset is an order-free reduction over pooled state: allowed.
func goodCountReset(s *scratch) int {
	n := 0
	for range s.memProd {
		n++
	}
	return n
}

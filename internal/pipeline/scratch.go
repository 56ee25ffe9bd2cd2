package pipeline

import (
	"math/bits"
	"sync"

	"valuepred/internal/trace"
)

// This file is the machine's memory discipline (DESIGN.md §12, "Memory
// discipline"), shared by both entry points and so by the Section 3 and
// Section 5 machines alike. Run and RunPerfectFetch keep their register
// producers in an array and hold no window, so the only per-run state they
// reuse is the table of in-flight stores, the clock ring's backing array,
// the network lookup buffer and RunPerfectFetch's group buffer, which
// holds only the groups of a bare Source and those that straddle two
// chunks of a viewing one (every other group is read in place). Each is
// bounded by the window or the width, not by the trace. They come from a
// process-wide sync.Pool, which caches per-P (effectively per plan
// worker), so a worker reuses them cell after cell. A scratch is fully
// reset at acquisition (table emptied, ring zeroed, buffers truncated,
// capacity kept) and owned by one run until the matching Put.
// TestScratchResetLeavesNoState pins the reset.
type scratch struct {
	stores storeTable  // in-flight store address → execute cycle of its latest store
	ring   []slot      // backing array of the run's clock ring
	pcs    []uint64    // ingest's per-group network lookup buffer
	group  []trace.Rec // RunPerfectFetch's group from a bare Source, or straddling two chunks
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// getScratch returns a fully reset scratch, its store table sized for a
// window of window records, with exclusive ownership.
func getScratch(window int) *scratch {
	s := scratchPool.Get().(*scratch)
	s.reset(window)
	return s
}

// reset readies s for a run with a window of window records. The literal
// names only the fields whose capacity is kept, so every other field, one
// added later included, starts at zero.
func (s *scratch) reset(window int) {
	*s = scratch{stores: s.stores, ring: s.ring, pcs: s.pcs[:0], group: s.group[:0]}
	s.stores.reset(window)
	clear(s.ring)
}

// putScratch returns s to the pool. The caller must not touch s afterwards.
func putScratch(s *scratch) { scratchPool.Put(s) }

// storeTable maps the address of each store that may still delay a load
// to the execute cycle of the latest store to it; an address it does not
// hold reads as cycle 0, which delays nothing. It is an open-addressed
// table with linear probing, and exec 0 marks a free slot (no record
// executes before cycle 3).
//
// It holds only stores in flight, so its size is bounded by the window,
// not by the trace's store addresses. When more than half its slots are in
// use, put first drops every store that executes by now+1, where now is
// the current fetch cycle. That is exact: a load fetched in cycle now or
// later executes no earlier than now+2, so such a store never delays it.
// Every store kept executes after now+1, so it is still in the window in
// cycle now, and the window holds at most WindowSize records. With at
// least 4×WindowSize slots, a purge therefore leaves the table at most a
// quarter full.
type storeTable struct {
	slots []storeSlot
	shift uint        // 64 - log2(len(slots)): home takes the hash's top bits
	n     int         // slots in use
	keep  []storeSlot // purge's buffer for the stores it keeps
}

type storeSlot struct{ addr, exec uint64 }

// reset empties t and gives it at least 4×window slots, a power of two.
// Like scratch.reset, it keeps only the capacity of the fields it names.
func (t *storeTable) reset(window int) {
	slots := t.slots
	if size := max(64, 4*window); len(slots) < size {
		slots = make([]storeSlot, 1<<bits.Len(uint(size-1)))
	} else {
		clear(slots)
	}
	*t = storeTable{slots: slots, shift: uint(64 - bits.TrailingZeros(uint(len(slots)))), keep: t.keep[:0]}
}

// home returns addr's first probe slot.
func (t *storeTable) home(addr uint64) int {
	return int(addr * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns the execute cycle of the latest store to addr that t holds,
// or 0.
func (t *storeTable) get(addr uint64) uint64 {
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.exec == 0 || s.addr == addr {
			return s.exec
		}
	}
}

// put records that the latest store to addr executes in cycle exec, which
// is after now+1, purging first when more than half of t is in use.
func (t *storeTable) put(addr, exec, now uint64) {
	if 2*t.n > len(t.slots) {
		t.purge(now)
	}
	t.insert(addr, exec)
}

func (t *storeTable) insert(addr, exec uint64) {
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.exec == 0 {
			t.n++
		} else if s.addr != addr {
			continue
		}
		*s = storeSlot{addr, exec}
		return
	}
}

// purge drops every store that executes by now+1 and rebuilds t from the
// rest.
func (t *storeTable) purge(now uint64) {
	keep := t.keep[:0]
	for _, s := range t.slots {
		if s.exec > now+1 {
			keep = append(keep, s)
		}
	}
	t.keep = keep
	clear(t.slots)
	t.n = 0
	for _, s := range keep {
		t.insert(s.addr, s.exec)
	}
}

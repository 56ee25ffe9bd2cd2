package predictor

import "valuepred/internal/isa"

// maxDense bounds the static instructions a pcTable indexes densely. The
// workloads' text segments hold a few hundred instructions; a PC past this
// bound still works, through the map.
const maxDense = 1 << 16

// pcTable is per-instruction predictor state indexed by static instruction
// instead of hashed by PC. A text-segment PC maps to slot
// (pc-isa.TextBase)/isa.InstBytes of a slice that grows on demand, the
// index isa.IndexOf computes; any other PC (unaligned, below the text
// segment or past maxDense slots) goes to a map. An entry never written
// reads as the zero T either way.
type pcTable[T any] struct {
	dense []T
	other map[uint64]*T
}

// get returns pc's entry, or the zero T when pc was never written.
func (t *pcTable[T]) get(pc uint64) T {
	if i, ok := isa.IndexOf(pc, len(t.dense)); ok {
		return t.dense[i]
	}
	if e, ok := t.other[pc]; ok {
		return *e
	}
	var zero T
	return zero
}

// at returns pc's entry for writing, creating a zero one first if pc was
// never written. The pointer is valid until the next call to at.
func (t *pcTable[T]) at(pc uint64) *T {
	if i, ok := isa.IndexOf(pc, maxDense); ok {
		if i >= len(t.dense) {
			dense := make([]T, min(max(2*len(t.dense), i+1, 64), maxDense))
			copy(dense, t.dense)
			t.dense = dense
		}
		return &t.dense[i]
	}
	e, ok := t.other[pc]
	if !ok {
		if t.other == nil {
			t.other = make(map[uint64]*T)
		}
		e = new(T)
		t.other[pc] = e
	}
	return e
}

// Package predictor implements the value predictors studied in the paper:
// last-value prediction (Lipasti et al.), stride value prediction (Gabbay &
// Mendelson), a 2-bit saturating-counter classification unit, and the
// hybrid last-value + stride predictor with opcode hints discussed in
// Section 4.2. Tables come in infinite (unbounded per-PC state) and finite
// (direct-mapped, tagged) variants.
//
// The simulation protocol mirrors the paper: the table is looked up at
// fetch and updated speculatively; because the trace carries the committed
// value, Update is called with the actual outcome immediately after Lookup,
// which is equivalent to a speculative update that is corrected as soon as
// the value is known. Lookups and updates therefore happen in trace order
// whatever machine runs the trace, so each record's outcome (confident,
// and correct) is a function of the trace and the predictor alone.
// RecordOutcomes records it once per trace as an Outcomes stream, and
// Step, the per-record step both machines take, either replays that
// stream or drives a live predictor. The infinite stride predictor and
// the classifier index their state by static instruction (pcTable), which
// keeps that one pass cheap.
package predictor

import "fmt"

// Prediction is the outcome of a table lookup.
type Prediction struct {
	// Value is the predicted destination value, meaningful when HasValue.
	Value uint64
	// HasValue reports whether the table could produce a value (entry
	// present and warm).
	HasValue bool
	// Confident reports whether the classification unit endorses using the
	// value for speculative execution. Predictors without a classifier set
	// Confident whenever HasValue.
	Confident bool
}

// Predictor is a PC-indexed value predictor.
type Predictor interface {
	// Lookup returns the prediction for the instruction at pc.
	Lookup(pc uint64) Prediction
	// Update records the actual outcome value of the instruction at pc.
	Update(pc uint64, actual uint64)
	// Name identifies the predictor in reports.
	Name() string
}

// StrideSource is implemented by predictors that can expose their (last,
// stride) pair for a PC. The value distributor of the banked prediction
// network (internal/core) uses it to expand one merged reply into the value
// sequence X, X+Δ, X+2Δ, … for multiple copies of the same instruction.
type StrideSource interface {
	// LastAndStride returns the last committed value and current stride for
	// pc, with ok=false when the table has no warm entry.
	LastAndStride(pc uint64) (last uint64, stride int64, ok bool)
}

// --- last-value predictor ---

// LastValue predicts that an instruction produces the same value as its
// previous dynamic instance.
type LastValue struct {
	table map[uint64]uint64
}

// NewLastValue returns an infinite last-value predictor.
func NewLastValue() *LastValue { return &LastValue{table: make(map[uint64]uint64)} }

// Name implements Predictor.
func (p *LastValue) Name() string { return "last-value" }

// Lookup implements Predictor.
func (p *LastValue) Lookup(pc uint64) Prediction {
	v, ok := p.table[pc]
	return Prediction{Value: v, HasValue: ok, Confident: ok}
}

// Update implements Predictor.
func (p *LastValue) Update(pc uint64, actual uint64) { p.table[pc] = actual }

// LastAndStride implements StrideSource with a zero stride, so a merged
// last-value reply distributes the same value to every copy.
func (p *LastValue) LastAndStride(pc uint64) (uint64, int64, bool) {
	v, ok := p.table[pc]
	return v, 0, ok
}

// --- stride predictor ---

type strideEntry struct {
	last   uint64
	stride int64
	warm   bool // true after the first update (a value exists)
}

// Stride predicts last + stride, where stride is the delta between the two
// most recent values. A single occurrence degenerates to last-value
// prediction (stride 0), matching the predictor of [7], [8].
type Stride struct {
	table pcTable[strideEntry]
}

// NewStride returns an infinite stride predictor.
func NewStride() *Stride { return &Stride{} }

// Name implements Predictor.
func (p *Stride) Name() string { return "stride" }

// Lookup implements Predictor.
func (p *Stride) Lookup(pc uint64) Prediction {
	e := p.table.get(pc)
	if !e.warm {
		return Prediction{}
	}
	return Prediction{Value: e.last + uint64(e.stride), HasValue: true, Confident: true}
}

// Update implements Predictor.
func (p *Stride) Update(pc uint64, actual uint64) {
	e := p.table.at(pc)
	if !e.warm {
		*e = strideEntry{last: actual, warm: true}
		return
	}
	e.stride = int64(actual - e.last)
	e.last = actual
}

// LastAndStride implements StrideSource.
func (p *Stride) LastAndStride(pc uint64) (uint64, int64, bool) {
	e := p.table.get(pc)
	return e.last, e.stride, e.warm
}

// --- finite, direct-mapped, tagged stride table ---

// StrideTable is a finite direct-mapped stride predictor with full tags:
// the realistic counterpart of Stride for hardware-budget ablations.
type StrideTable struct {
	entries []strideEntry
	tags    []uint64
	valid   []bool
	mask    uint64
}

// NewStrideTable returns a direct-mapped stride predictor with size entries;
// size must be a power of two.
func NewStrideTable(size int) *StrideTable {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("predictor: table size %d is not a positive power of two", size))
	}
	return &StrideTable{
		entries: make([]strideEntry, size),
		tags:    make([]uint64, size),
		valid:   make([]bool, size),
		mask:    uint64(size - 1),
	}
}

// Name implements Predictor.
func (p *StrideTable) Name() string { return fmt.Sprintf("stride[%d]", len(p.entries)) }

func (p *StrideTable) index(pc uint64) uint64 { return (pc >> 2) & p.mask }

// Lookup implements Predictor.
func (p *StrideTable) Lookup(pc uint64) Prediction {
	i := p.index(pc)
	if !p.valid[i] || p.tags[i] != pc || !p.entries[i].warm {
		return Prediction{}
	}
	e := &p.entries[i]
	return Prediction{Value: e.last + uint64(e.stride), HasValue: true, Confident: true}
}

// Update implements Predictor. A tag mismatch evicts the previous occupant.
func (p *StrideTable) Update(pc uint64, actual uint64) {
	i := p.index(pc)
	if !p.valid[i] || p.tags[i] != pc {
		p.valid[i] = true
		p.tags[i] = pc
		p.entries[i] = strideEntry{last: actual, warm: true}
		return
	}
	e := &p.entries[i]
	e.stride = int64(actual - e.last)
	e.last = actual
}

// LastAndStride implements StrideSource.
func (p *StrideTable) LastAndStride(pc uint64) (uint64, int64, bool) {
	i := p.index(pc)
	if !p.valid[i] || p.tags[i] != pc || !p.entries[i].warm {
		return 0, 0, false
	}
	return p.entries[i].last, p.entries[i].stride, true
}

var (
	_ StrideSource = (*LastValue)(nil)
	_ StrideSource = (*Stride)(nil)
	_ StrideSource = (*StrideTable)(nil)
)

// Package core implements the paper's Section 4 hardware contribution: the
// value-prediction delivery network for high-bandwidth instruction-fetch
// processors. A trace-cache line can contain several copies of the same
// static instruction (e.g. three iterations of a loop fetched in one
// cycle), which a conventional interleaved prediction table cannot serve:
// the copies collide on one bank port, and a stride predictor can natively
// produce only one value per instruction per cycle.
//
// The network models the paper's solution end to end:
//
//   - a trace addresses buffer capturing the PCs of the fetched trace;
//   - an address router distributing those addresses to a highly
//     interleaved prediction table (bank = low-order PC bits), resolving
//     conflicts by program-order priority and merging the accesses of
//     duplicate PCs into a single access;
//   - a value distributor re-mapping bank replies to trace slots and
//     expanding a merged stride reply (last value + stride) into the value
//     sequence X+Δ, X+2Δ, … for the instruction's copies, with a valid bit
//     cleared on every slot whose request was denied.
//
// With a hybrid predictor (Section 4.2) the router additionally drops
// no-predict instructions before arbitration using opcode hints, and the
// distributor skips sequence computation for last-value-steered replies.
package core

import (
	"fmt"

	"valuepred/internal/predictor"
)

// Config parameterises the network.
type Config struct {
	// Banks is the number of prediction-table banks (power of two).
	Banks int
	// PortsPerBank is the number of same-cycle accesses one bank can
	// serve (paper: 1).
	PortsPerBank int
	// Predictor is the underlying prediction table (stride, last-value,
	// classified or hybrid). It must implement predictor.StrideSource for
	// merged requests to be expanded; otherwise only the first copy of a
	// duplicated instruction receives a value.
	Predictor predictor.Predictor
	// Hints optionally supplies opcode hints: HintNone instructions are
	// dropped by the router before bank arbitration, reducing conflicts
	// (Section 4.2). Nil means every request arbitrates.
	Hints predictor.Hints
}

// DefaultConfig returns a 16-bank, single-ported network over the paper's
// classified stride predictor.
func DefaultConfig() Config {
	return Config{Banks: 16, PortsPerBank: 1, Predictor: predictor.NewClassifiedStride()}
}

// Slot is the value distributor's reply for one instruction slot of the
// fetched trace.
type Slot struct {
	// Valid is the paper's valid bit: set when the slot received a
	// predicted value (its request was granted or merged); cleared when
	// the request was denied by a bank conflict, dropped by an opcode
	// hint, or the table had no warm entry.
	Valid bool
	// Merged reports the value came from a merged (duplicate-PC) access.
	Merged bool
	// Denied reports the slot's request was refused by the router (bank
	// conflict, hint drop, or a merged copy of a denied primary) — the
	// hardware cases Section 4 exists to minimise. A slot can be !Valid
	// without being Denied (cold table, unconfident classifier).
	Denied bool
	// Pred is the prediction delivered to the slot.
	Pred predictor.Prediction
}

// Stats accumulates router/distributor behaviour for Section 4 analysis.
type Stats struct {
	Cycles        uint64 // ProcessGroup calls
	Requests      uint64 // slots requesting a prediction
	HintDropped   uint64 // dropped by opcode hints before arbitration
	Granted       uint64 // unique accesses granted a bank port
	Denied        uint64 // unique accesses denied by bank conflicts
	MergedServed  uint64 // duplicate-PC slots served by a merged access
	MergedDenied  uint64 // duplicate-PC slots whose primary was denied
	Cold          uint64 // granted accesses with no warm table entry
	BankConflicts uint64 // port shortfalls observed during arbitration
}

// DenyRate returns the fraction of unique accesses denied by conflicts.
// With no accesses at all the rate is 0: DenyRate counts a failure event,
// and zero accesses suffered zero denials (the dual of the zero-sample
// convention in fetch.Stats.BranchAccuracy, where no samples means no
// failures and the success rate is 1).
func (s Stats) DenyRate() float64 {
	total := s.Granted + s.Denied
	if total == 0 {
		return 0
	}
	return float64(s.Denied) / float64(total)
}

// primary is the router's bookkeeping for the first (merged) access of a
// PC within one fetch group.
type primary struct {
	pc      uint64
	granted bool
	copies  int
	last    uint64
	strideV int64
	warm    bool
	conf    bool
}

// Network is the value-prediction delivery network.
type Network struct {
	cfg    Config
	mask   uint64
	stride predictor.StrideSource // nil if the predictor cannot expand
	ports  []int                  // per-bank ports used this cycle
	stats  Stats

	// Per-cycle working set, reused across ProcessGroup calls so the
	// pipeline hot path allocates nothing per fetch group (DESIGN.md §12):
	// the reply buffer and the group's primary accesses in program order.
	// ProcessGroup returns slots truncated to the group, valid until the
	// next call; both buffers are unexported, so only Network's own
	// methods can grow or rewrite them.
	slots []Slot
	prims []primary
}

// NewNetwork validates cfg and builds the network.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		return nil, fmt.Errorf("core: bank count %d is not a positive power of two", cfg.Banks)
	}
	if cfg.PortsPerBank <= 0 {
		return nil, fmt.Errorf("core: ports per bank must be positive, have %d", cfg.PortsPerBank)
	}
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("core: config requires a predictor")
	}
	n := &Network{
		cfg:   cfg,
		mask:  uint64(cfg.Banks - 1),
		ports: make([]int, cfg.Banks),
	}
	if ss, ok := cfg.Predictor.(predictor.StrideSource); ok {
		n.stride = ss
	}
	return n, nil
}

// MustNew is NewNetwork that panics on error, for validated configurations.
func MustNew(cfg Config) *Network {
	n, err := NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Stats returns the cumulative router/distributor statistics.
func (n *Network) Stats() Stats { return n.stats }

// Bank returns the bank an address routes to.
func (n *Network) Bank(pc uint64) int { return int((pc >> 2) & n.mask) }

// ProcessGroup runs one fetch cycle through the network. pcs are the
// addresses of the value-producing instructions in the fetched trace, in
// program order (the trace addresses buffer). The returned slice has one
// Slot per input address; it is owned by the network and valid only until
// the next ProcessGroup call (the pipeline consumes it within the cycle).
func (n *Network) ProcessGroup(pcs []uint64) []Slot {
	n.stats.Cycles++
	if cap(n.slots) < len(pcs) {
		n.slots = make([]Slot, len(pcs))
	}
	slots := n.slots[:len(pcs)]
	clear(slots)
	clear(n.ports)
	n.prims = n.prims[:0]

	for i, pc := range pcs {
		n.stats.Requests++
		if n.cfg.Hints != nil && n.cfg.Hints.HintFor(pc) == predictor.HintNone {
			n.stats.HintDropped++
			slots[i].Denied = true
			continue
		}
		if p := n.primaryOf(pc); p != nil {
			// Duplicate copy: the router merges it onto the primary
			// access; the distributor expands the stride sequence.
			p.copies++
			if !p.granted {
				n.stats.MergedDenied++
				slots[i] = Slot{Merged: true, Denied: true}
				continue
			}
			if !p.warm {
				continue
			}
			n.stats.MergedServed++
			var value uint64
			if n.stride != nil {
				// Copy 0 (the primary) received last+Δ from the table
				// lookup; copy k receives last+(k+1)Δ.
				value = p.last + uint64(int64(p.copies+1)*p.strideV)
			} else {
				// No expansion capability: only the primary copy is
				// served.
				continue
			}
			slots[i] = Slot{
				Valid:  p.conf,
				Merged: true,
				Pred:   predictor.Prediction{Value: value, HasValue: true, Confident: p.conf},
			}
			continue
		}
		// New primary. The pointer is only held within this iteration:
		// later appends may move the slice.
		n.prims = append(n.prims, primary{pc: pc})
		p := &n.prims[len(n.prims)-1]
		bank := n.Bank(pc)
		if n.ports[bank] >= n.cfg.PortsPerBank {
			// Bank conflict with an earlier, higher-priority instruction:
			// the request is denied and the slot's valid bit stays clear.
			n.stats.Denied++
			n.stats.BankConflicts++
			slots[i].Denied = true
			continue
		}
		n.ports[bank]++
		p.granted = true
		n.stats.Granted++
		pr := n.cfg.Predictor.Lookup(pc)
		if !pr.HasValue {
			n.stats.Cold++
			continue
		}
		p.warm = true
		p.conf = pr.Confident
		if n.stride != nil {
			p.last, p.strideV, _ = n.stride.LastAndStride(pc)
		}
		slots[i] = Slot{Valid: pr.Confident, Pred: pr}
	}
	return slots
}

// primaryOf returns the current group's primary access of pc, or nil if
// pc has none yet. The scan is linear in the group's primaries, at most
// one per request of a group of at most one trace-cache line or Width
// records, which costs less than hashing into a map and clearing it per
// group.
func (n *Network) primaryOf(pc uint64) *primary {
	for i := range n.prims {
		if n.prims[i].pc == pc {
			return &n.prims[i]
		}
	}
	return nil
}

// Update trains the underlying table with a committed value; the pipeline
// calls it once per value-producing instruction, after the group's lookups
// (mirroring the paper's speculative-update-then-correct protocol).
func (n *Network) Update(pc uint64, actual uint64) {
	n.cfg.Predictor.Update(pc, actual)
}

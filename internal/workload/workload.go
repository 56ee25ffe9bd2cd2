// Package workload provides the eight SPEC95-integer analogue benchmarks
// used throughout this reproduction (Table 3.1 of the paper). Each workload
// is a real program — LZW compression, an interpreter, a DCT encoder, a
// database, a game-tree search, … — written in the assembler DSL and
// executed on the functional emulator to produce a dynamic trace with
// genuine value streams and control flow.
//
// The paper traced SPEC95 binaries with Shade for 100M instructions; these
// analogues replace the proprietary binaries (see DESIGN.md §2). Every
// workload runs indefinitely: an outer loop perturbs its input with a
// deterministic PRNG each pass, so traces of any requested length are
// available, and the first pass computes a checksum over unperturbed input
// that the test suite verifies against a pure-Go golden model.
package workload

import (
	"fmt"

	"valuepred/internal/emu"
	"valuepred/internal/isa"
	"valuepred/internal/trace"
)

// Spec describes one benchmark.
type Spec struct {
	// Name is the benchmark's registry key (the SPEC95 name).
	Name string
	// Description matches the role given in Table 3.1 of the paper.
	Description string
	// Build assembles the program with inputs derived from seed.
	Build func(seed int64) (*isa.Program, error)
	// Golden computes, in pure Go, the checksum the program stores at the
	// "golden" symbol during its first pass over the input.
	Golden func(seed int64) uint64
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workload: duplicate benchmark " + s.Name)
	}
	registry[s.Name] = s
}

// Names returns the benchmark names in the paper's presentation order.
func Names() []string {
	return []string{"go", "m88ksim", "gcc", "compress95", "li", "ijpeg", "perl", "vortex"}
}

// All returns the specs in presentation order.
func All() []Spec {
	var out []Spec
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// Get returns the spec for name.
func Get(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Run builds the named benchmark with the given seed, executes up to limit
// instructions and returns the machine (for state inspection) and the trace.
func Run(name string, seed int64, limit int) (*emu.Machine, []trace.Rec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	prog, err := s.Build(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("workload: building %s: %w", name, err)
	}
	m := emu.New(prog)
	recs := m.Run(limit)
	if err := m.Err(); err != nil {
		return nil, nil, fmt.Errorf("workload: running %s: %w", name, err)
	}
	if limit > 0 && len(recs) < limit && m.Halted() {
		return nil, nil, fmt.Errorf("workload: %s halted after %d instructions; workloads must run forever", name, len(recs))
	}
	return m, recs, nil
}

// Trace is Run returning only the trace records.
func Trace(name string, seed int64, limit int) ([]trace.Rec, error) {
	_, recs, err := Run(name, seed, limit)
	return recs, err
}

// Stream is the record-at-a-time form of Run: a trace.Source that steps
// the emulator lazily, so the streaming trace path (internal/chunk) never
// holds more than the record in flight. It owns its emulator outright;
// records returned by Next are copies the caller may retain.
//
// Error semantics mirror Run exactly: after Next returns false, Err
// reports a machine fault or an early halt (workloads must run forever —
// halting before the requested limit is a bug in the workload) with the
// same messages Run wraps around them.
type Stream struct {
	name   string
	m      *emu.Machine
	limit  int
	served int
	err    error
}

// Open builds the named benchmark with the given seed and returns a Stream
// over its first limit instructions (limit <= 0 streams forever — callers
// must impose their own bound, since workloads never halt).
func Open(name string, seed int64, limit int) (*Stream, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	prog, err := s.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("workload: building %s: %w", name, err)
	}
	return &Stream{name: name, m: emu.New(prog), limit: limit}, nil
}

// Next implements trace.Source.
func (s *Stream) Next() (trace.Rec, bool) {
	if s.err != nil || (s.limit > 0 && s.served >= s.limit) {
		return trace.Rec{}, false
	}
	r, ok := s.m.Step()
	if !ok {
		if err := s.m.Err(); err != nil {
			s.err = fmt.Errorf("workload: running %s: %w", s.name, err)
		} else if s.limit > 0 && s.m.Halted() {
			s.err = fmt.Errorf("workload: %s halted after %d instructions; workloads must run forever", s.name, s.served)
		}
		return trace.Rec{}, false
	}
	s.served++
	return r, true
}

// Err returns the fault or early-halt error, if any. Valid after Next
// returns false; a nil Err means the stream ended cleanly at its limit.
func (s *Stream) Err() error { return s.err }

// Len returns the stream's limit (0 when unbounded), so trace.Collect can
// size its output up front.
func (s *Stream) Len() int { return s.limit }

// MustTrace is Trace that panics on error; for benchmarks and examples
// whose workloads are validated by the test suite.
func MustTrace(name string, seed int64, limit int) []trace.Rec {
	recs, err := Trace(name, seed, limit)
	if err != nil {
		panic(err)
	}
	return recs
}

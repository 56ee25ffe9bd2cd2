package workload

import (
	"testing"

	"valuepred/internal/trace"
)

// goldenLimit is generous enough for every workload to finish its first
// pass (the longest, ijpeg, needs ~250k instructions per pass).
const goldenLimit = 800_000

// TestGoldenChecksums is the master correctness test for the assembly
// workloads: each program's first-pass checksum must equal the pure-Go
// golden model's result.
func TestGoldenChecksums(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 42, 20260706} {
				m, _, err := Run(spec.Name, seed, goldenLimit)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				addr := m.Program().Symbol("golden")
				got := m.Mem().Read64(addr)
				if got == 0 {
					t.Fatalf("seed %d: golden slot still zero after %d insts (first pass did not finish)", seed, goldenLimit)
				}
				want := spec.Golden(seed)
				if got != want {
					t.Errorf("seed %d: golden checksum = %#x, want %#x", seed, got, want)
				}
			}
		})
	}
}

// TestWorkloadsRunForever verifies that no workload halts or faults within
// a long window, the contract the experiment harness relies on.
func TestWorkloadsRunForever(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			recs, err := Trace(name, 7, 1_500_000)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1_500_000 {
				t.Fatalf("trace ended early: %d records", len(recs))
			}
		})
	}
}

// TestTraceDeterminism checks that rebuilding and re-running a workload
// yields an identical trace: the experiments depend on replayability.
func TestTraceDeterminism(t *testing.T) {
	for _, name := range Names() {
		a, err := Trace(name, 3, 50_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Trace(name, 3, 50_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: trace diverges at %d: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

// TestSeedsDiverge checks that different seeds give different dynamic
// behaviour (otherwise per-seed experiments would be meaningless).
func TestSeedsDiverge(t *testing.T) {
	for _, name := range Names() {
		a, err := Trace(name, 1, 30_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Trace(name, 2, 30_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 produced identical traces", name)
		}
	}
}

// TestPassesDiverge verifies the in-program perturbation: the checksum of a
// later pass must differ from the first pass for workloads that perturb
// their input (m88ksim's state evolves forever instead, so its checksum is
// written only once and is exempt).
func TestPassesDiverge(t *testing.T) {
	for _, name := range Names() {
		if name == "m88ksim" {
			continue
		}
		m, _, err := Run(name, 5, 3_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden := m.Mem().Read64(m.Program().Symbol("golden"))
		checksum := m.Mem().Read64(m.Program().Symbol("checksum"))
		if golden == 0 {
			t.Fatalf("%s: first pass did not finish", name)
		}
		if checksum == golden {
			t.Errorf("%s: checksum after 3M insts still equals first-pass golden; perturbation ineffective", name)
		}
	}
}

// TestRegistry checks registry consistency: Names and the registry list
// the same benchmarks, each with a complete spec.
func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("want 8 benchmarks, have %d", len(names))
	}
	listed := make(map[string]bool, len(names))
	for _, n := range names {
		listed[n] = true
		s, ok := Get(n)
		if !ok {
			t.Fatalf("benchmark %q not registered", n)
		}
		if s.Name != n || s.Build == nil || s.Golden == nil || s.Description == "" {
			t.Errorf("benchmark %q has an incomplete spec", n)
		}
	}
	for n := range registry {
		if !listed[n] {
			t.Errorf("registered benchmark %q missing from Names()", n)
		}
	}
	if _, ok := Get("nonesuch"); ok {
		t.Error("Get(nonesuch) unexpectedly succeeded")
	}
	if _, _, err := Run("nonesuch", 1, 10); err == nil {
		t.Error("Run(nonesuch) should fail")
	}
}

// TestTraceShape sanity-checks dynamic properties every workload must have
// for the paper's experiments to be meaningful.
func TestTraceShape(t *testing.T) {
	for _, name := range Names() {
		recs, err := Trace(name, 11, 200_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := trace.SummarizeSource(trace.NewSliceSource(recs))
		if s.ValueWriters < s.Insts/4 {
			t.Errorf("%s: only %d/%d instructions produce values", name, s.ValueWriters, s.Insts)
		}
		if s.CondBranches+s.Jumps < s.Insts/20 {
			t.Errorf("%s: too few control transfers (%d cond + %d jumps of %d)",
				name, s.CondBranches, s.Jumps, s.Insts)
		}
		if s.StaticPCs < 30 {
			t.Errorf("%s: touches only %d static instructions", name, s.StaticPCs)
		}
		if s.Loads == 0 || s.Stores == 0 {
			t.Errorf("%s: loads=%d stores=%d; workloads must exercise memory", name, s.Loads, s.Stores)
		}
	}
}

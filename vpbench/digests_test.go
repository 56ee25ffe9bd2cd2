package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"
	"testing"

	"valuepred/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite digests.go from the current program")

// TestRecordedDigestsAreCurrent renders every sweep table at the default
// and the held-out seed and compares it with digests.go; with -update it
// rewrites digests.go instead, for a change that means to alter a table.
func TestRecordedDigestsAreCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every sweep at full length")
	}
	got := map[digestKey]string{}
	for _, s := range sweeps {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			st, err := s.newStore(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range s.exps {
				tab, err := experiment.Run(id, experiment.Params{Seed: seed, TraceLen: s.traceLen, Store: st, Stream: s.stream})
				if err != nil {
					t.Fatal(err)
				}
				if got[digestKey{s.name, seed, s.traceLen, id}], err = tableDigest(tab); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if *update {
		writeDigests(t, got)
		return
	}
	for k, want := range got {
		if recordedDigests[k] != want {
			t.Errorf("%+v renders to %s, digests.go records %q (go test -run DigestsAreCurrent -update rewrites it)", k, want, recordedDigests[k])
		}
	}
	if len(recordedDigests) != len(got) {
		t.Errorf("digests.go records %d tables, the sweeps render %d", len(recordedDigests), len(got))
	}
}

func writeDigests(t *testing.T, got map[digestKey]string) {
	keys := make([]digestKey, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	var b bytes.Buffer
	b.WriteString(`package main

// recordedDigests are the SHA-256 digests of the text rendering of every
// table a sweep produces, at the sweep's trace length, for the default and
// the held-out seed. go test -run DigestsAreCurrent -update rewrites this file.
var recordedDigests = map[digestKey]string{
`)
	for _, k := range keys {
		fmt.Fprintf(&b, "\t{%q, %d, %d, %q}: %q,\n", k.workload, k.seed, k.traceLen, k.exp, got[k])
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("digests.go", src, 0o644); err != nil {
		t.Fatal(err)
	}
}

package valuepred

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden corpus from the current engine instead of
// diffing against it: go test -run Golden -update.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current renderings")

// goldenDir holds one rendering per registered experiment.
var goldenDir = filepath.Join("testdata", "golden")

// TestGoldenRenderings diffs the text rendering of every registered
// experiment (all workloads, seed 1, 10k-instruction traces) against the
// committed corpus under testdata/golden. The other byte-identity tests
// compare one execution path with another (workers, streaming, sharding,
// telemetry), so a semantic change that moves every path at once passes
// them all; this one compares against fixed bytes. A file without a
// registered experiment is reported too, so the corpus cannot go stale.
func TestGoldenRenderings(t *testing.T) {
	p := DefaultParams()
	p.TraceLen = 10_000
	registered := make(map[string]bool)
	for _, e := range Experiments() {
		registered[e.ID+".txt"] = true
		tab, err := RunExperiment(e.ID, p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var sb strings.Builder
		if err := tab.Render(&sb); err != nil {
			t.Fatalf("%s: render: %v", e.ID, err)
		}
		got := sb.String()
		path := filepath.Join(goldenDir, e.ID+".txt")
		if *update {
			if err := os.MkdirAll(goldenDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (regenerate with go test -run Golden -update)", e.ID, err)
			continue
		}
		if got != string(want) {
			t.Errorf("%s: rendering differs from %s (regenerate with go test -run Golden -update):\n%s",
				e.ID, path, firstDiff(string(want), got))
		}
	}
	files, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !registered[f.Name()] {
			t.Errorf("%s: no registered experiment renders it", filepath.Join(goldenDir, f.Name()))
		}
	}
}

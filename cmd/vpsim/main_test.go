package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valuepred"
)

func TestList(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig3.1", "fig5.3", "table3.2", "ablation.banks"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunExperimentText(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-experiment", "fig3.4", "-len", "8000", "-workloads", "perl"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 3.4") || !strings.Contains(out.String(), "perl") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunExperimentCSVToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	var out, errb strings.Builder
	err := run([]string{"-experiment", "fig3.3", "-len", "8000", "-workloads", "go", "-csv", "-o", path}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "benchmark,") {
		t.Errorf("csv output:\n%s", data)
	}
}

func TestErrors(t *testing.T) {
	var out, errb strings.Builder
	if err := run(nil, &out, &errb); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{"-experiment", "nonesuch", "-len", "100"}, &out, &errb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-badflag"}, &out, &errb); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunExperimentMarkdown(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-experiment", "fig3.5", "-len", "8000", "-workloads", "li", "-md"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| li |") {
		t.Errorf("markdown output:\n%s", out.String())
	}
}

func TestMultiSeedAveraging(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-experiment", "fig3.3", "-len", "8000", "-workloads", "go", "-seeds", "2"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "averaged over 2 seeds") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestPreloadAndCacheStats(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-experiment", "fig3.3", "-len", "7000", "-workloads", "go,li",
		"-preload", "-cachestats"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 3.3") {
		t.Errorf("output:\n%s", out.String())
	}
	stats := errb.String()
	if !strings.Contains(stats, "trace cache:") ||
		!strings.Contains(stats, "hits") || !strings.Contains(stats, "misses") {
		t.Errorf("cache stats missing from stderr:\n%s", stats)
	}
}

// TestObservabilityFlags exercises -metrics, -trace-out and -manifest on a
// small run: the metrics snapshot reaches stderr, the trace file is valid
// schema-checked Chrome trace_event JSON, and the manifest round-trips
// through encoding/json byte-identically.
func TestObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	maniPath := filepath.Join(dir, "manifest.json")
	var out, errb strings.Builder
	err := run([]string{"-experiment", "fig5.1", "-len", "4000", "-workloads", "go",
		"-metrics", "-trace-out", tracePath, "-trace-sample", "16", "-manifest", maniPath},
		&out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter sim.cycles ", "counter vp.useful ", "counter vp.shadowed ",
		"histogram pipeline.window.occupancy "} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("-metrics output missing %q:\n%s", want, errb.String())
		}
	}

	// Chrome trace_event schema: every event needs a name, a known phase,
	// pid/tid, and (except metadata) a timestamp.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var sawTrack bool
	for i, ev := range ct.TraceEvents {
		if ev.Name == "" || ev.Pid == 0 || ev.Tid == 0 || ev.Args == nil {
			t.Errorf("event %d incomplete: %+v", i, ev)
		}
		switch ev.Ph {
		case "C", "I":
			if ev.TS == nil {
				t.Errorf("event %d (%s) has no timestamp", i, ev.Name)
			}
		case "M":
			if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "fig5.1/go/") {
				sawTrack = true
			}
		default:
			t.Errorf("event %d has unexpected phase %q", i, ev.Ph)
		}
	}
	if !sawTrack {
		t.Error("no fig5.1/go/... track in the trace")
	}

	// Manifest: parses, carries the run's configuration, and round-trips.
	first, err := os.ReadFile(maniPath)
	if err != nil {
		t.Fatal(err)
	}
	var m valuepred.Manifest
	if err := json.Unmarshal(first, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m.Tool != "vpsim" || len(m.Experiments) != 1 || m.Experiments[0] != "fig5.1" ||
		m.TraceLen != 4000 {
		t.Errorf("manifest fields: %+v", m)
	}
	if v, ok := m.Metrics.Counter("sim.cycles"); !ok || v == 0 {
		t.Errorf("manifest metrics missing sim.cycles: %d, %v", v, ok)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf.Bytes()) {
		t.Errorf("manifest does not round-trip byte-identically:\n%s\n----\n%s", first, buf.Bytes())
	}
}

// TestObservabilityDoesNotSteer renders the same experiment with and
// without the observability flags and expects byte-identical tables:
// metrics observe, they never steer.
func TestObservabilityDoesNotSteer(t *testing.T) {
	dir := t.TempDir()
	render := func(extra ...string) string {
		var out, errb strings.Builder
		args := append([]string{"-experiment", "fig5.3", "-len", "4000", "-workloads", "li"}, extra...)
		if err := run(args, &out, &errb); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	plain := render()
	observed := render("-metrics", "-trace-out", filepath.Join(dir, "t.json"),
		"-manifest", filepath.Join(dir, "m.json"), "-cachestats")
	if plain != observed {
		t.Errorf("observability changed the table:\n%s\n----\n%s", plain, observed)
	}
}

// TestShardMergeByteIdentical is the CLI half of the DESIGN.md §14
// contract: -shard 1/2 and -shard 2/2 artifacts merged by -merge render
// byte-identically to the unsharded run.
func TestShardMergeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-experiment", "table3.1", "-len", "4000", "-workloads", "go,li,perl"}
	var full, errb strings.Builder
	if err := run(base, &full, &errb); err != nil {
		t.Fatal(err)
	}
	p1 := filepath.Join(dir, "p1.json")
	p2 := filepath.Join(dir, "p2.json")
	var out strings.Builder
	if err := run(append(base, "-shard", "1/2", "-o", p1), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-shard", "2/2", "-o", p2), &out, &errb); err != nil {
		t.Fatal(err)
	}

	// The artifact is JSON carrying its partition identity.
	raw, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Shard struct{ Index, Of int } `json:"shard"`
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("shard artifact is not valid JSON: %v", err)
	}
	if art.Shard.Index != 1 || art.Shard.Of != 2 {
		t.Errorf("artifact shard = %+v, want 1/2", art.Shard)
	}

	var merged strings.Builder
	if err := run([]string{"-merge", p2, p1}, &merged, &errb); err != nil {
		t.Fatal(err)
	}
	if merged.String() != full.String() {
		t.Errorf("merged render differs from the unsharded run:\nmerged:\n%s\nunsharded:\n%s",
			merged.String(), full.String())
	}
}

// TestShardAndMergeFlagErrors pins the new flags' usage errors (exit 2)
// and distinguishes them from runtime failures (exit 1).
func TestShardAndMergeFlagErrors(t *testing.T) {
	usage := [][]string{
		{"-shard", "banana", "-experiment", "table3.1"},
		{"-shard", "0/2", "-experiment", "table3.1"},
		{"-merge"},
		{"-merge", "-shard", "1/2", "x.json"},
		{"-merge", "-experiment", "table3.1", "x.json"},
		{"-experiment", "table3.1", "stray-argument"},
		{"-shard", "1/2", "-experiment", "table3.1", "-csv"},
	}
	for _, args := range usage {
		var out, errb strings.Builder
		err := run(args, &out, &errb)
		if err == nil {
			t.Errorf("run(%v) accepted", args)
			continue
		}
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want a usage error (exit 2)", args, err)
		}
	}
	// A missing shard file is a runtime failure, not a usage error.
	var out, errb strings.Builder
	err := run([]string{"-merge", filepath.Join(t.TempDir(), "nope.json")}, &out, &errb)
	if err == nil || errors.Is(err, errUsage) {
		t.Errorf("missing shard file: err = %v, want a non-usage error (exit 1)", err)
	}
	// So is a well-formed shard set whose experiment carries no seed runs;
	// it used to panic the merge.
	dir := t.TempDir()
	var names []string
	for i, w := range []string{"go", "li"} {
		name := filepath.Join(dir, fmt.Sprintf("p%d.json", i+1))
		body := fmt.Sprintf(`{"version":1,"shard":{"index":%d,"of":2},`+
			`"params":{"seed":1,"trace_len":100,"seeds":1,"workloads":["go","li"]},`+
			`"experiments":[{"experiment":"fig3.1","assigned":[%q],"runs":[]}]}`, i+1, w)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	err = run(append([]string{"-merge"}, names...), &out, &errb)
	if err == nil || errors.Is(err, errUsage) {
		t.Errorf("shard set without seed runs: err = %v, want a non-usage error (exit 1)", err)
	}
}

func TestRunExperimentChart(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-experiment", "fig3.4", "-len", "8000", "-workloads", "go", "-chart"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "#") || !strings.Contains(out.String(), "go") {
		t.Errorf("chart output:\n%s", out.String())
	}
}

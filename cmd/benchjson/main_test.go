package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: valuepred
cpu: AMD EPYC 7B13
BenchmarkPipeline-8          	       3	 387654321 ns/op	        25.80 Minst/s	     120 B/op	       2 allocs/op
BenchmarkTraceStore-16       	    1000	   1234567 ns/op	        81.00 Minst/s
BenchmarkStridePredictor     	 5000000	       251.0 ns/op
BenchmarkFig31Workers/workers=1-8   	       2	 800000000 ns/op	        50.00 cells/s
BenchmarkFig31Workers/workers=max-8 	       2	 200000000 ns/op	       200.00 cells/s
PASS
ok  	valuepred	12.345s
`

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkPipeline-8   3   387654321 ns/op   25.8 Minst/s")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "BenchmarkPipeline" || b.Runs != 3 || b.NsPerOp != 387654321 {
		t.Errorf("parsed %+v", b)
	}
	if b.Metrics["Minst/s"] != 25.8 {
		t.Errorf("metrics %v", b.Metrics)
	}
	for _, junk := range []string{
		"goos: linux", "PASS", "ok  \tvaluepred\t12.3s",
		"BenchmarkBroken-8 notanumber 5 ns/op",
		"BenchmarkNoNs-8 3 12 B/op",
	} {
		if _, ok := parseLine(junk); ok {
			t.Errorf("junk line parsed: %q", junk)
		}
	}
}

func TestRunWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var echo strings.Builder
	if err := run(strings.NewReader(sample), &echo, path, false, "", ""); err != nil {
		t.Fatal(err)
	}
	if echo.String() != sample {
		t.Errorf("input not echoed verbatim:\n%s", echo.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("want 5 benchmarks, got %+v", rep.Benchmarks)
	}
	if rep.Benchmarks[0].Name != "BenchmarkPipeline" || rep.Benchmarks[0].Metrics["Minst/s"] != 25.8 {
		t.Errorf("first entry: %+v", rep.Benchmarks[0])
	}
	if rep.Benchmarks[2].Name != "BenchmarkStridePredictor" || rep.Benchmarks[2].Metrics != nil {
		t.Errorf("third entry: %+v", rep.Benchmarks[2])
	}
	if rep.GOOS == "" || rep.GoVersion == "" {
		t.Errorf("environment fields missing: %+v", rep)
	}
	if len(rep.WorkersSpeedup) != 1 {
		t.Fatalf("want 1 derived speedup, got %+v", rep.WorkersSpeedup)
	}
	sp := rep.WorkersSpeedup[0]
	if sp.Benchmark != "BenchmarkFig31Workers" || sp.ParallelName != "workers=max" || sp.Speedup != 4 {
		t.Errorf("derived speedup: %+v", sp)
	}
	if sp.Regression {
		t.Errorf("4x speedup flagged as regression: %+v", sp)
	}
	if strings.Contains(string(data), `"regression"`) {
		t.Errorf("regression field emitted for a healthy speedup:\n%s", data)
	}
}

const regressedSample = `BenchmarkFig31Workers/workers=1-8   	       2	 800000000 ns/op
BenchmarkFig31Workers/workers=max-8 	       2	 870000000 ns/op
PASS
`

func TestRegressionFlagAndGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var echo strings.Builder
	// Without -gate a regressed pair is recorded but not fatal.
	if err := run(strings.NewReader(regressedSample), &echo, path, false, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.WorkersSpeedup) != 1 || !rep.WorkersSpeedup[0].Regression {
		t.Fatalf("regression not flagged: %+v", rep.WorkersSpeedup)
	}
	if !strings.Contains(string(data), `"regression": true`) {
		t.Errorf("explicit regression field missing from report:\n%s", data)
	}
	// With -gate the same input exits non-zero (the report is still written).
	echo.Reset()
	err = run(strings.NewReader(regressedSample), &echo, path, true, "", "")
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("gate did not reject regressed speedup: %v", err)
	}
	// A healthy report passes the gate.
	echo.Reset()
	if err := run(strings.NewReader(sample), &echo, "", true, "", ""); err != nil {
		t.Fatalf("gate rejected healthy speedup: %v", err)
	}
	// A measured ratio just under 1.0 is benchmark noise, not a regression:
	// on a single-core machine workers=1 and workers=max run the identical
	// configuration, so a strict < 1.0 gate would fail on a coin flip.
	noisySample := "BenchmarkFig31Workers/workers=1-8 \t 2\t 800000000 ns/op\n" +
		"BenchmarkFig31Workers/workers=max-8 \t 2\t 816000000 ns/op\nPASS\n"
	echo.Reset()
	if err := run(strings.NewReader(noisySample), &echo, "", true, "", ""); err != nil {
		t.Fatalf("gate rejected 0.98x noise-band speedup: %v", err)
	}
}

func TestDeriveSpeedups(t *testing.T) {
	out := deriveSpeedups([]Bench{
		{Name: "BenchmarkA/workers=1", NsPerOp: 900},
		{Name: "BenchmarkA/workers=max", NsPerOp: 300},
		{Name: "BenchmarkA/workers=2", NsPerOp: 450},
		{Name: "BenchmarkB/workers=max", NsPerOp: 100}, // no serial baseline: skipped
		{Name: "BenchmarkC", NsPerOp: 7},               // not a workers sweep: skipped
	})
	if len(out) != 2 {
		t.Fatalf("want 2 speedups, got %+v", out)
	}
	if out[0].Speedup != 3 || out[0].ParallelName != "workers=max" {
		t.Errorf("first: %+v", out[0])
	}
	if out[1].Speedup != 2 || out[1].ParallelName != "workers=2" {
		t.Errorf("second: %+v", out[1])
	}
}

func TestStreamOverFlat(t *testing.T) {
	sampleAt := func(streamNs string) string {
		return "BenchmarkFig31Workers/workers=1-2 \t 3\t 250000000 ns/op\n" +
			"BenchmarkFig31Workers/workers=max-2 \t 3\t 150000000 ns/op\n" +
			"BenchmarkFig31Stream/workers=1-2 \t 3\t " + streamNs + " ns/op\n" +
			"BenchmarkFig31Stream/workers=max-2 \t 3\t 160000000 ns/op\nPASS\n"
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var echo strings.Builder
	if err := run(strings.NewReader(sampleAt("275000000")), &echo, path, true, "", ""); err != nil {
		t.Fatalf("gate rejected a 1.1x streamed sweep: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.StreamOverFlat != 1.1 {
		t.Errorf("stream_over_flat = %v, want 1.1 (workers=1 over workers=1, not workers=max)", rep.StreamOverFlat)
	}
	// Above the ceiling the report is recorded, and -gate fails: 1.77 is
	// the ratio of one decode per cell (BENCH_pr20.json).
	if err := run(strings.NewReader(sampleAt("442500000")), &echo, path, false, "", ""); err != nil {
		t.Fatalf("a 1.77x streamed sweep failed without -gate: %v", err)
	}
	err = run(strings.NewReader(sampleAt("442500000")), &echo, path, true, "", "")
	if err == nil || !strings.Contains(err.Error(), "1.77x") {
		t.Fatalf("gate did not reject a 1.77x streamed sweep: %v", err)
	}
	// A run without both sides derives nothing and gates nothing.
	if got := deriveStreamOverFlat([]Bench{{Name: streamBench, NsPerOp: 9}}); got != 0 {
		t.Errorf("stream_over_flat without the flat side = %v, want 0", got)
	}
	if err := run(strings.NewReader(sample), &echo, path, true, "", ""); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "stream_over_flat") {
		t.Errorf("report without a streamed sweep carries stream_over_flat:\n%s", data)
	}
}

func TestGateMemBudget(t *testing.T) {
	benches := []Bench{
		{Name: "BenchmarkFig31Stream/workers=1", NsPerOp: 1, Metrics: map[string]float64{"B/op": 600_000}},
		{Name: "BenchmarkFig31Stream/workers=max", NsPerOp: 1, Metrics: map[string]float64{"B/op": 580_000}},
		{Name: "BenchmarkPipeline", NsPerOp: 1, Metrics: map[string]float64{"B/op": 120}},
		{Name: "BenchmarkNoMem", NsPerOp: 1},
	}
	// Both sub-benchmarks under budget: passes, including a second spec.
	if err := gateMemBudget(benches, "BenchmarkFig31Stream=4000000,BenchmarkPipeline=200"); err != nil {
		t.Errorf("under-budget run rejected: %v", err)
	}
	// One sub-benchmark over budget: fails and names the offender.
	err := gateMemBudget(benches, "BenchmarkFig31Stream=590000")
	if err == nil || !strings.Contains(err.Error(), "workers=1") {
		t.Errorf("over-budget run not rejected with offender named: %v", err)
	}
	// A budget matching no benchmark (or only ones without B/op) is an
	// error, not a vacuous pass.
	if err := gateMemBudget(benches, "BenchmarkRenamed=1000"); err == nil {
		t.Error("budget naming no benchmark accepted")
	}
	if err := gateMemBudget(benches, "BenchmarkNoMem=1000"); err == nil {
		t.Error("budget over a -benchmem-less benchmark accepted")
	}
	// Malformed specs are rejected.
	for _, bad := range []string{"BenchmarkX", "BenchmarkX=-5", "BenchmarkX=abc"} {
		if err := gateMemBudget(benches, bad); err == nil {
			t.Errorf("malformed spec %q accepted", bad)
		}
	}
}

func TestRunNoBenchmarks(t *testing.T) {
	var echo strings.Builder
	if err := run(strings.NewReader("PASS\nok\n"), &echo, "", false, "", ""); err == nil {
		t.Error("empty input accepted")
	}
}

// Command benchjson converts `go test -bench` output into a stable JSON
// report. It reads the benchmark text from stdin, echoes it unchanged to
// stdout (so it slots into a pipe without hiding the familiar output), and
// writes the parsed report to the file named by -o.
//
// Each benchmark line
//
//	BenchmarkPipeline-8   3   387654321 ns/op   25.8 Minst/s   120 B/op
//
// becomes an entry with the benchmark name (CPU suffix stripped), the
// iteration count, ns/op pulled out as the headline number, and every other
// "value unit" pair collected into a metrics map — which is how the
// simulated-instructions-per-second metric (Minst/s, emitted via
// b.ReportMetric) rides along. encoding/json marshals map keys sorted, and
// entries keep input order, so the report is deterministic for a given
// benchmark run.
//
// Sub-benchmarks named "<base>/workers=1" and "<base>/workers=<w>" (the
// execution-engine pool-width sweep, e.g. BenchmarkFig31Workers) are
// additionally paired into a derived workers_speedup section reporting
// serial over parallel ns/op — the wall-clock payoff of the plan runner
// on the machine that ran the benchmarks. A pair whose parallel run is
// slower than serial beyond a small measurement-noise floor is marked
// "regression": true, and with -gate the command exits non-zero on any
// such entry — so a parallel slowdown fails make bench and CI instead of
// sitting unnoticed in a committed report.
//
// The report also derives stream_over_flat: the ns/op of the streamed
// fig3.1 sweep on one worker (BenchmarkFig31Stream/workers=1) over that of
// the same sweep from flat traces (BenchmarkFig31Workers/workers=1), the
// price of reading traces from compressed chunks. Like the speedups it is
// a ratio, so any machine can check it; -gate fails a run whose ratio is
// above maxStreamOverFlat.
//
// -baseline FILE additionally gates against a committed report: every
// workers_speedup entry present in both must reach the baseline's speedup
// ratio minus a 10% tolerance. Ratios — not raw ns/op — are compared,
// because ns/op describes the machine while the serial/parallel ratio
// describes the code.
//
// -membudget 'Name=BYTES[,Name=BYTES...]' gates absolute allocated bytes
// per op: every benchmark whose name equals Name (or is a sub-benchmark
// Name/...) must report B/op at or under BYTES. Unlike the speedup gates
// this one compares an absolute number, because it enforces a structural
// claim — the streaming trace path's footprint is bounded by the chunk
// pool, not the trace length — and allocated bytes per op measure the
// code, not the machine. A budget naming no benchmark in the input is an
// error, so a renamed benchmark cannot silently disable its gate.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem | go run ./cmd/benchjson -gate -baseline BENCH_pr9.json -o /dev/null
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Speedup is a derived entry pairing a benchmark's workers=1 sub-run with
// its widest workers=* sibling: the wall-clock payoff of the parallel
// execution engine on this machine.
type Speedup struct {
	Benchmark    string  `json:"benchmark"`
	SerialNsOp   float64 `json:"serial_ns_per_op"`
	ParallelName string  `json:"parallel_name"`
	ParallelNsOp float64 `json:"parallel_ns_per_op"`
	Speedup      float64 `json:"speedup"`
	// Regression flags a parallel run that lost to its serial baseline:
	// speedup below 1.0 by more than the measurement-noise floor (see
	// regressionFloor). Made explicit so a bad number cannot hide in a
	// committed report the way PR 5's 0.92× did; the -gate flag turns any
	// flagged entry into a non-zero exit for make bench and CI.
	Regression bool `json:"regression,omitempty"`
}

// regressionFloor is the speedup below which a parallel run counts as a
// regression. The true speedup can never be below 1.0 — at worst the pool
// degenerates to serial — but the *measured* ratio jitters a few percent
// run to run, and on a single-core machine (where workers=max and
// workers=1 run the identical configuration) a strict < 1.0 check would
// fail on a coin flip. 0.95 sits above any real regression seen so far
// (PR 5's allocation wall measured 0.92×) and below benchmark noise.
const regressionFloor = 0.95

// Report is the full bench report written to the -o file.
type Report struct {
	GoVersion      string    `json:"go_version"`
	GOOS           string    `json:"goos"`
	GOARCH         string    `json:"goarch"`
	Benchmarks     []Bench   `json:"benchmarks"`
	WorkersSpeedup []Speedup `json:"workers_speedup,omitempty"`
	// StreamOverFlat is streamBench's ns/op over flatBench's; 0 when the
	// run lacks either.
	StreamOverFlat float64 `json:"stream_over_flat,omitempty"`
}

// streamBench and flatBench are the two sides of stream_over_flat: one
// fig3.1 sweep on one worker, from compressed chunks and from flat traces.
const (
	streamBench = "BenchmarkFig31Stream/workers=1"
	flatBench   = "BenchmarkFig31Workers/workers=1"
)

// maxStreamOverFlat is the highest stream_over_flat -gate accepts. Reading
// chunks in place brought the ratio from 3.2 to 1.77 on a 2-vCPU machine
// (BENCH_pr20.json); 2.5 fails a return of per-record decoding or copying
// without tripping on noise. Decoding each trace once per sweep instead
// of once per cell is what would bring it near 1.
const maxStreamOverFlat = 2.5

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout only)")
	gate := flag.Bool("gate", false, "exit non-zero if any workers_speedup entry is a regression (parallel slower than serial beyond noise)")
	baseline := flag.String("baseline", "", "committed benchjson report to gate against: each workers_speedup entry must reach the baseline's speedup minus tolerance")
	membudget := flag.String("membudget", "", "comma-separated Name=BYTES budgets: each named benchmark (and its sub-benchmarks) must report B/op at or under BYTES")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *out, *gate, *baseline, *membudget); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gateMemBudget enforces -membudget: parse the Name=BYTES specs and check
// every matching benchmark's B/op metric against its budget. Matching is
// by exact name or sub-benchmark prefix (Name followed by "/"); a spec
// that matches nothing, or matches only benchmarks run without -benchmem
// (no B/op metric), fails rather than passing vacuously.
func gateMemBudget(benches []Bench, spec string) error {
	for _, one := range strings.Split(spec, ",") {
		name, bytesStr, ok := strings.Cut(strings.TrimSpace(one), "=")
		if !ok {
			return fmt.Errorf("membudget: bad spec %q, want Name=BYTES", one)
		}
		budget, err := strconv.ParseFloat(bytesStr, 64)
		if err != nil || budget <= 0 {
			return fmt.Errorf("membudget: bad byte budget in %q", one)
		}
		matched := false
		for _, b := range benches {
			if b.Name != name && !strings.HasPrefix(b.Name, name+"/") {
				continue
			}
			bop, ok := b.Metrics["B/op"]
			if !ok {
				continue
			}
			matched = true
			if bop > budget {
				return fmt.Errorf("memory budget exceeded: %s allocates %.0f B/op, budget %.0f",
					b.Name, bop, budget)
			}
		}
		if !matched {
			return fmt.Errorf("membudget: no benchmark with a B/op metric matches %q (renamed benchmark, or -benchmem missing?)", name)
		}
	}
	return nil
}

// baselineTolerance is the fraction of a committed baseline speedup the
// current run may fall short by before the gate fails. Speedup ratios
// compare like machine against like machine only in CI reruns of the same
// runner class, and even there they jitter several percent run to run;
// 10% catches a structural loss (a serialized pool, a reintroduced
// allocation wall) without tripping on scheduler noise. Raw ns/op is
// deliberately not compared — it says more about the machine than the
// code.
const baselineTolerance = 0.10

// gateBaseline compares the current run's workers_speedup entries against
// the committed report at path: every benchmark present in both must reach
// the baseline's speedup minus tolerance. Benchmarks only in one report
// are ignored (the sweep grows and shrinks across PRs).
func gateBaseline(cur []Speedup, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	want := make(map[string]float64)
	for _, s := range base.WorkersSpeedup {
		want[s.Benchmark+"/"+s.ParallelName] = s.Speedup
	}
	for _, s := range cur {
		baseSp, ok := want[s.Benchmark+"/"+s.ParallelName]
		if !ok {
			continue
		}
		floor := baseSp * (1 - baselineTolerance)
		if s.Speedup < floor {
			return fmt.Errorf("speedup regression vs %s: %s %s is %.3fx, baseline %.3fx (floor %.3fx)",
				path, s.Benchmark, s.ParallelName, s.Speedup, baseSp, floor)
		}
	}
	return nil
}

func run(in io.Reader, echo io.Writer, outPath string, gate bool, baseline, membudget string) error {
	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: []Bench{},
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if b, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	rep.WorkersSpeedup = deriveSpeedups(rep.Benchmarks)
	rep.StreamOverFlat = deriveStreamOverFlat(rep.Benchmarks)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		if _, err = echo.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	if gate {
		for _, s := range rep.WorkersSpeedup {
			if s.Regression {
				return fmt.Errorf("parallel regression: %s %s is %.2fx vs serial (below the %.2f floor)",
					s.Benchmark, s.ParallelName, s.Speedup, regressionFloor)
			}
		}
		if rep.StreamOverFlat > maxStreamOverFlat {
			return fmt.Errorf("streaming regression: %s takes %.2fx the ns/op of %s, above the %.2f ceiling",
				streamBench, rep.StreamOverFlat, flatBench, maxStreamOverFlat)
		}
	}
	if baseline != "" {
		if err := gateBaseline(rep.WorkersSpeedup, baseline); err != nil {
			return err
		}
	}
	if membudget != "" {
		if err := gateMemBudget(rep.Benchmarks, membudget); err != nil {
			return err
		}
	}
	return nil
}

// deriveSpeedups pairs every "<base>/workers=1" entry with its
// "<base>/workers=*" siblings and reports serial ns/op over parallel
// ns/op for each pair, in input order. Benchmarks without a workers=1
// baseline contribute nothing.
func deriveSpeedups(benches []Bench) []Speedup {
	serial := make(map[string]float64) // base name -> workers=1 ns/op
	for _, b := range benches {
		if base, ok := strings.CutSuffix(b.Name, "/workers=1"); ok {
			serial[base] = b.NsPerOp
		}
	}
	var out []Speedup
	for _, b := range benches {
		base, rest, ok := strings.Cut(b.Name, "/workers=")
		if !ok || rest == "1" {
			continue
		}
		ns1, ok := serial[base]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		sp := ns1 / b.NsPerOp
		out = append(out, Speedup{
			Benchmark:    base,
			SerialNsOp:   ns1,
			ParallelName: "workers=" + rest,
			ParallelNsOp: b.NsPerOp,
			Speedup:      sp,
			Regression:   sp < regressionFloor,
		})
	}
	return out
}

// deriveStreamOverFlat returns streamBench's ns/op over flatBench's, or 0
// when either is missing.
func deriveStreamOverFlat(benches []Bench) float64 {
	var stream, flat float64
	for _, b := range benches {
		switch b.Name {
		case streamBench:
			stream = b.NsPerOp
		case flatBench:
			flat = b.NsPerOp
		}
	}
	if stream == 0 || flat == 0 {
		return 0
	}
	return stream / flat
}

// parseLine parses one `go test -bench` result line. Lines that are not
// benchmark results (headers, PASS, ok, unit output) return ok=false.
func parseLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Bench{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: trimCPUSuffix(fields[0]), Runs: runs}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			seenNs = true
			continue
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics[unit] = v
	}
	if !seenNs {
		return Bench{}, false
	}
	return b, true
}

// trimCPUSuffix drops the trailing "-<gomaxprocs>" so reports compare
// across machines with different core counts.
func trimCPUSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

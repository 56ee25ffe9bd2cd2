// Command vpsim regenerates any table or figure of the paper's evaluation.
//
// Usage:
//
//	vpsim -list
//	vpsim -experiment fig3.1 [-seed 1] [-seeds 5] [-len 200000] [-workloads go,gcc]
//	      [-workers 8] [-csv|-md|-chart] [-o out.txt]
//	vpsim -all [-preload] [-metrics]
//	vpsim -experiment fig5.1 -metrics -trace-out run.json -manifest run-manifest.json
//	vpsim -experiment fig5.1 -shard 1/2 -o part1.json
//	vpsim -merge part1.json part2.json [-csv|-md|-chart]
//
// Experiments execute as grids of independent simulation cells on a
// process-global bounded worker pool; -workers sets the pool's width
// (default GOMAXPROCS). The width changes wall-clock time only — every
// table renders byte-identically at any -workers value.
//
// Traces are served from a process-wide cache, so -all and -seeds N emulate
// each (workload, seed) pair only once. -preload warms the cache for every
// selected workload and seed up front (one emulator per goroutine) before
// the first experiment runs; -metrics reports, among the rest, the cache's
// hit/miss/evict/dedup counters (tracestore.*) on stderr at exit.
//
// -stream selects the chunked streaming trace pipeline (DESIGN.md §13):
// traces are cached as compressed chunk sequences and every simulated
// machine consumes a bounded pooled window, so paper-scale runs
// (-len 10000000 and beyond) keep peak memory governed by the chunk pool
// instead of the trace length. Tables are byte-identical to the default
// materialized path.
//
// Observability: -metrics dumps the full metrics snapshot on stderr at
// exit; -trace-out writes a Chrome trace_event JSON file (open it in
// chrome://tracing or https://ui.perfetto.dev) with one track per simulated
// run, sampled every -trace-sample cycles; -manifest writes a JSON run
// manifest (configuration, wall time, metric snapshot); -pprof serves
// net/http/pprof on the given address for live profiling; -progress
// renders a live cells-done/total line with an EWMA-derived ETA on stderr
// while the grids run; -events writes the structured JSON event log
// (run/cell lifecycle, trace generation) to a file. None of these affect
// the simulation: the rendered tables are bit-identical with
// observability on or off.
//
// -shard n/m runs only the n-th of m deterministic partitions of the
// workload axis and writes a JSON shard artifact instead of a table;
// -merge recombines a complete artifact set (all m files, any order) and
// renders the tables byte-identically to the unsharded run, in any of the
// usual output formats (DESIGN.md §14).
//
// Invalid flag values (e.g. -trace-sample 0, -workers -1, a malformed
// -shard, -merge without files) exit 2 with the usage text; simulation
// failures exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"valuepred"
)

// errUsage marks a command-line validation failure. main reports it like
// any other error but exits 2 (the conventional usage-error status), so
// scripts can tell a bad invocation from a failed simulation.
var errUsage = errors.New("invalid usage")

// usagef prints the flag set's usage text and returns a friendly
// validation error carrying errUsage.
func usagef(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vpsim:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list        = fs.Bool("list", false, "list the available experiments and exit")
		id          = fs.String("experiment", "", "experiment id to run (see -list)")
		all         = fs.Bool("all", false, "run every experiment")
		seed        = fs.Int64("seed", 1, "workload input seed")
		seeds       = fs.Int("seeds", 1, "average the experiment over this many consecutive seeds")
		traceLen    = fs.Int("len", 200_000, "dynamic instructions per benchmark")
		workloads   = fs.String("workloads", "", "comma-separated benchmark subset (default all)")
		csv         = fs.Bool("csv", false, "emit CSV instead of a text table")
		md          = fs.Bool("md", false, "emit a Markdown table")
		chart       = fs.Bool("chart", false, "emit an ASCII bar chart")
		outPath     = fs.String("o", "", "write output to a file instead of stdout")
		preload     = fs.Bool("preload", false, "warm the trace cache for all selected workloads and seeds before running")
		metrics     = fs.Bool("metrics", false, "dump the metrics snapshot on stderr at exit")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace_event JSON file of the run")
		traceSample = fs.Int("trace-sample", 64, "cycles between tracer counter samples (with -trace-out)")
		manifestOut = fs.String("manifest", "", "write a JSON run manifest to this file")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		workers     = fs.Int("workers", 0, "simulation worker-pool width (0 = GOMAXPROCS); tables are byte-identical at any width")
		progress    = fs.Bool("progress", false, "render a live cells-done/total progress line on stderr while experiments run")
		eventsOut   = fs.String("events", "", "write a structured JSON event log (one event per line) to this file")
		stream      = fs.Bool("stream", false, "stream traces through the chunked pipeline (bounded memory; tables byte-identical)")
		shardSpec   = fs.String("shard", "", "run shard n/m of the workload axis and write a mergeable JSON artifact")
		merge       = fs.Bool("merge", false, "merge the shard artifacts named as arguments and render the full tables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: the usage text has been printed; exit 0
		}
		return fmt.Errorf("%w: %s", errUsage, err)
	}
	if *traceSample <= 0 {
		return usagef(fs, "-trace-sample must be a positive cycle count, have %d", *traceSample)
	}
	if *workers < 0 {
		return usagef(fs, "-workers must be >= 0 (0 = GOMAXPROCS), have %d", *workers)
	}
	if *seeds < 1 {
		return usagef(fs, "-seeds must be >= 1, have %d", *seeds)
	}
	var shard valuepred.Shard
	if *shardSpec != "" {
		var err error
		shard, err = valuepred.ParseShard(*shardSpec)
		if err != nil {
			return usagef(fs, "-shard: %v", err)
		}
	}
	if *merge && shard.Enabled() {
		return usagef(fs, "-merge and -shard are mutually exclusive (merge consumes what sharded runs produce)")
	}
	if *merge && (*id != "" || *all) {
		return usagef(fs, "-merge reads shard files, not experiments; drop -experiment/-all")
	}
	if *merge && fs.NArg() == 0 {
		return usagef(fs, "-merge needs the shard files as arguments (all m files of an m-way run)")
	}
	if !*merge && fs.NArg() > 0 {
		return usagef(fs, "unexpected arguments %v", fs.Args())
	}
	if shard.Enabled() && (*csv || *md || *chart) {
		return usagef(fs, "-shard writes a JSON artifact; render formats apply to -merge instead")
	}
	prevWorkers := valuepred.SetWorkers(*workers)
	defer valuepred.SetWorkers(prevWorkers)

	if *list {
		for _, e := range valuepred.Experiments() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Description)
		}
		return nil
	}
	if *merge {
		return runMerge(fs.Args(), stdout, *outPath, *csv, *md, *chart)
	}
	if !*all && *id == "" {
		return usagef(fs, "need -experiment <id>, -all or -list")
	}

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(stderr, "vpsim: pprof:", err)
			}
		}()
	}

	manifest := valuepred.BeginManifest("vpsim")

	p := valuepred.DefaultParams()
	p.Seed = *seed
	p.TraceLen = *traceLen
	if *workloads != "" {
		p.Workloads = strings.Split(*workloads, ",")
	}
	p.Stream = *stream

	// Any observability flag builds a registry; the trace store mirrors its
	// counters there.
	var reg *valuepred.MetricsRegistry
	if *metrics || *manifestOut != "" || *traceOut != "" {
		reg = valuepred.NewMetricsRegistry()
		valuepred.InstrumentTraceStore(reg)
	}
	var tracer *valuepred.Tracer
	if *traceOut != "" {
		tracer = valuepred.NewEventTracer(*traceSample)
	}
	p.Obs = valuepred.NewObsSink(reg, tracer)

	// Live telemetry rides on the same write-only sink: -progress attaches
	// the cell-grid aggregator plus a stderr renderer, -events the
	// structured event log. Both work with or without -metrics/-trace-out
	// (a nil sink materializes a minimal one), and neither changes a byte
	// of table output.
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		lg := valuepred.NewEventLog(f)
		p.Obs = p.Obs.WithEventLog(lg)
		// Trace generation is the run's slowest phase; narrate it too.
		valuepred.InstrumentTraceStoreEvents(lg)
		defer valuepred.InstrumentTraceStoreEvents(nil)
	}
	if *progress {
		prog := valuepred.NewProgress()
		p.Obs = p.Obs.WithProgress(prog)
		stop := startProgress(stderr, prog)
		defer stop()
	}

	if *preload {
		for j := 0; j < *seeds; j++ {
			var err error
			if *stream {
				err = valuepred.PreloadStreamTraces(p.Workloads, *seed+int64(j), *traceLen)
			} else {
				err = valuepred.PreloadTraces(p.Workloads, *seed+int64(j), *traceLen)
			}
			if err != nil {
				return err
			}
		}
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	ids := []string{*id}
	if *all {
		ids = nil
		for _, e := range valuepred.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	switch {
	case shard.Enabled():
		// A sharded run writes the artifact, not tables: one file carries
		// this shard's partition of every selected experiment and seed.
		var list []int64
		if *seeds > 1 {
			list = make([]int64, *seeds)
			for j := range list {
				list[j] = *seed + int64(j)
			}
		}
		sf, err := valuepred.RunExperimentShards(nil, ids, p, list, shard)
		if err != nil {
			return err
		}
		if err := sf.WriteJSON(out); err != nil {
			return err
		}
	default:
		for i, one := range ids {
			var t *valuepred.Table
			var err error
			if *seeds > 1 {
				list := make([]int64, *seeds)
				for j := range list {
					list[j] = *seed + int64(j)
				}
				t, err = valuepred.RunExperimentSeeds(one, p, list)
			} else {
				t, err = valuepred.RunExperiment(one, p)
			}
			if err != nil {
				return err
			}
			if i > 0 {
				fmt.Fprintln(out)
			}
			if err := renderTable(out, t, *csv, *md, *chart); err != nil {
				return err
			}
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *manifestOut != "" {
		manifest.Experiments = ids
		manifest.Workloads = p.Workloads
		manifest.Seed = *seed
		manifest.Seeds = *seeds
		manifest.TraceLen = *traceLen
		manifest.Workers = valuepred.Workers()
		manifest.Finish(reg)
		f, err := os.Create(*manifestOut)
		if err != nil {
			return err
		}
		if err := manifest.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *metrics {
		if err := reg.Snapshot().WriteText(stderr); err != nil {
			return err
		}
	}
	return nil
}

// renderTable writes one table in the selected output format (the same
// flag set the unsharded and merged paths share).
func renderTable(out io.Writer, t *valuepred.Table, csv, md, chart bool) error {
	switch {
	case csv:
		return t.RenderCSV(out)
	case md:
		return t.RenderMarkdown(out)
	case chart:
		return t.RenderChart(out)
	}
	return t.Render(out)
}

// runMerge decodes the named shard artifacts, recombines them and renders
// one table per experiment — byte-identical to the unsharded run, with the
// same blank-line separator -all uses between tables.
func runMerge(names []string, stdout io.Writer, outPath string, csv, md, chart bool) error {
	files := make([]*valuepred.ShardFile, 0, len(names))
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		sf, err := valuepred.DecodeShardFile(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		files = append(files, sf)
	}
	merged, err := valuepred.MergeShardFiles(files)
	if err != nil {
		return err
	}
	out := stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	for i, m := range merged {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := renderTable(out, m.Table, csv, md, chart); err != nil {
			return err
		}
	}
	return nil
}

// startProgress launches the live progress renderer: a goroutine redraws
// one carriage-return-anchored stderr line a few times a second from the
// aggregator's snapshots. The returned stop function draws a final frame,
// terminates the line with a newline and waits the goroutine out, so
// nothing else the command prints can interleave with a half-drawn frame.
func startProgress(w io.Writer, prog *valuepred.Progress) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				renderProgress(w, prog.Snapshot())
				fmt.Fprintln(w)
				return
			case <-tick.C:
				renderProgress(w, prog.Snapshot())
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// renderProgress draws one frame: overall cells done/total, errors if any,
// live occupancy, and the largest per-experiment ETA (experiments run
// sequentially, so the current one's estimate dominates). The line is
// left-padded to a fixed width so a shorter frame fully overwrites a
// longer one.
func renderProgress(w io.Writer, s valuepred.ProgressSnapshot) {
	line := fmt.Sprintf("cells %d/%d", s.Done, s.Total)
	if s.Errors > 0 {
		line += fmt.Sprintf(" (%d errors)", s.Errors)
	}
	line += fmt.Sprintf("  running %d  queued %d", s.Running, s.Queued)
	var eta float64
	for _, e := range s.Experiments {
		if e.ETAMS > eta {
			eta = e.ETAMS
		}
	}
	if eta > 0 {
		d := time.Duration(eta * float64(time.Millisecond))
		line += fmt.Sprintf("  eta ~%s", d.Round(100*time.Millisecond))
	}
	fmt.Fprintf(w, "\r%-78s", line)
}

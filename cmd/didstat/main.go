// Command didstat prints the dataflow (dynamic instruction distance)
// analysis of a workload trace: average DID, the DID histogram, and the
// predictability×DID joint distribution of Section 3.3.
//
// Usage:
//
//	didstat [-workload all] [-seed 1] [-len 200000] [-mem]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"valuepred"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "didstat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("didstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "benchmark name, or \"all\"")
		seed     = fs.Int64("seed", 1, "workload input seed")
		traceLen = fs.Int("len", 200_000, "dynamic instructions to trace")
		mem      = fs.Bool("mem", false, "include store-to-load dependencies")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var names []string
	if *name == "all" {
		for _, b := range valuepred.Benchmarks() {
			names = append(names, b.Name)
		}
	} else {
		names = []string{*name}
	}
	// Warm the trace store up front: all emulators run concurrently, and the
	// per-benchmark loop below then hits the cache (or shares traces with a
	// prior run in the same process).
	if err := valuepred.PreloadTraces(names, *seed, *traceLen); err != nil {
		return err
	}
	buckets := []string{"1", "2", "3", "4-7", "8-15", "16-31", ">=32"}
	for _, n := range names {
		recs, err := valuepred.Trace(n, *seed, *traceLen)
		if err != nil {
			return err
		}
		a := valuepred.AnalyzeDID(recs, *mem)
		fmt.Fprintf(stdout, "%s  (%d insts, %d arcs)\n", n, a.Insts, a.Arcs)
		fmt.Fprintf(stdout, "  average DID           %10.1f\n", a.AvgDID())
		fmt.Fprintf(stdout, "  arcs with DID >= 4    %9.1f%%\n", 100*a.FracDIDAtLeast4())
		fmt.Fprintf(stdout, "  predictable, DID < 4  %9.1f%%\n", 100*a.FracPredictableShort())
		fmt.Fprintf(stdout, "  predictable, DID >= 4 %9.1f%%\n", 100*a.FracPredictableLong())
		fmt.Fprintf(stdout, "  %-8s %12s %12s\n", "DID", "all arcs", "predictable")
		for b := 0; b < len(buckets); b++ {
			fmt.Fprintf(stdout, "  %-8s %11.1f%% %11.1f%%\n", buckets[b],
				a.PctOfArcs(a.Hist[b]), a.PctOfArcs(a.PredHist[b]))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

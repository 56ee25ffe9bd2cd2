// Command vptrace generates, stores, inspects and replays workload traces
// as trace files (the repository's stand-in for Shade trace files): the
// magic "VPT2", then blocks of at most 8192 records, each storing the
// static instructions it touches once and per record only the dynamic
// fields (internal/trace, DESIGN.md §13). It reads no other format.
//
// Both directions stream: recording steps the emulator straight into the
// encoder, a block at a time, and decoding folds each record into a
// running summary as it leaves the reader's current block, so a
// 100M-instruction trace file is inspected (or written) in constant memory
// — no mode materializes the trace as a slice.
//
// Usage:
//
//	vptrace -workload compress95 -len 1000000 -o compress.vpt   # record
//	vptrace -decode compress.vpt -dump 20                       # inspect
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vptrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vptrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "benchmark to trace")
		seed     = fs.Int64("seed", 1, "workload input seed")
		traceLen = fs.Int("len", 200_000, "dynamic instructions to trace")
		outPath  = fs.String("o", "", "output file for the binary trace")
		decode   = fs.String("decode", "", "decode a binary trace file instead of recording")
		dump     = fs.Int("dump", 0, "print the first N records")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *decode != "":
		f, err := os.Open(*decode)
		if err != nil {
			return err
		}
		defer f.Close()
		r := trace.NewReader(f)
		if err := report(stdout, r, *dump); err != nil {
			return err
		}
		return r.Err()
	case *name != "":
		src, err := workload.Open(*name, *seed, *traceLen)
		if err != nil {
			return err
		}
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w := trace.NewWriter(f)
			var sum trace.Summarizer
			var head []trace.Rec
			for {
				rec, ok := src.Next()
				if !ok {
					break
				}
				if err := w.Write(rec); err != nil {
					return err
				}
				sum.Add(rec)
				if len(head) < *dump {
					head = append(head, rec)
				}
			}
			if err := src.Err(); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d records to %s\n", w.Count(), *outPath)
			printReport(stdout, sum.Summary(), head)
			return nil
		}
		return report(stdout, src, *dump)
	default:
		fs.Usage()
		return fmt.Errorf("need -workload <name> or -decode <file>")
	}
}

// report drains src, keeping only the running summary and the first dump
// records, then prints summary-then-dump in the command's established
// order. Peak memory is the source's own (one block for a file) plus the
// dump prefix, independent of the trace length.
func report(w io.Writer, src trace.Source, dump int) error {
	var sum trace.Summarizer
	var head []trace.Rec
	trace.ForEach(src, func(rec *trace.Rec) {
		sum.Add(*rec)
		if len(head) < dump {
			head = append(head, *rec)
		}
	})
	if s, ok := src.(interface{ Err() error }); ok {
		if err := s.Err(); err != nil {
			return err
		}
	}
	printReport(w, sum.Summary(), head)
	return nil
}

func printReport(w io.Writer, s trace.Summary, head []trace.Rec) {
	fmt.Fprintln(w, s)
	for _, rec := range head {
		fmt.Fprintln(w, rec)
	}
}

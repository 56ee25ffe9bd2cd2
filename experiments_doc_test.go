package valuepred

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// extendedStudyQuotes lists every number EXPERIMENTS.md quotes from a
// rendered table cell: in the "Extended studies" section, rendered at
// 150k records, and in the figure sections, the Section 4 section and the
// "Ablations" list, which quote the file's 200k run. Each entry holds the
// text as quoted, with exactly one number with one decimal, the render
// length, and the cell it quotes. Numbers the prose derives from cells
// ("+5.2 points", "36% below") and notes are not listed. A deliberate
// table change that moves one of these cells fails
// TestExtendedStudiesQuoteRenderedCells until the prose is updated too.
var extendedStudyQuotes = []struct {
	quote                   string
	traceLen                int
	experiment, row, column string
}{
	// Extended studies, at 150k records.
	{"averages a **0.4%** speedup", 150_000, "ablation.lipasti", "average", "loads-only speedup"},
	{"versus **45.2%** for all-instruction", 150_000, "ablation.lipasti", "average", "all-inst speedup"},
	{"21.0% of the value stream", 150_000, "diag.classes", "average", "load share %"},
	{"(15.2% hit rate", 150_000, "diag.classes", "average", "load hit %"},
	{"vs 50.9% for ALU results", 150_000, "diag.classes", "average", "alu hit %"},
	{"stride hit rate from 45.9%", 150_000, "ablation.twodelta", "average", "stride hit %"},
	{"to 51.6% and", 150_000, "ablation.twodelta", "average", "2-delta hit %"},
	{"width-16 speedup from 45.2%", 150_000, "ablation.twodelta", "average", "stride speedup"},
	{"to 53.0%, by not", 150_000, "ablation.twodelta", "average", "2-delta speedup"},
	{"(42.4% average)", 150_000, "ablation.vptable", "average", "256 entries"},
	{"64 entries fall to 35.5%", 150_000, "ablation.vptable", "average", "64 entries"},
	{"16 entries to 27.0%", 150_000, "ablation.vptable", "average", "16 entries"},
	{"first: 72.7%", 150_000, "ablation.vptable", "m88ksim", "256 entries"},
	{"→ 19.1% →", 150_000, "ablation.vptable", "m88ksim", "64 entries"},
	{"→\n  0.0%.", 150_000, "ablation.vptable", "m88ksim", "16 entries"},
	{"consume 63.5% of cycles", 150_000, "diag.stalls", "average", "branch-stall % base"},
	{"window (0.6%\n  full)", 150_000, "diag.stalls", "average", "winfull % base"},
	{"occupancy from 14.9", 150_000, "diag.stalls", "average", "occupancy base"},
	{"to 11.5 entries", 150_000, "diag.stalls", "average", "occupancy vp"},
	{"IPC only from 7.2", 150_000, "diag.memdeps", "average", "base IPC mem"},
	{"to 7.8 and moves", 150_000, "diag.memdeps", "average", "base IPC nomem"},
	{"speedup only from 42.4%", 150_000, "diag.memdeps", "average", "speedup mem"},
	{"to 43.5%: the", 150_000, "diag.memdeps", "average", "speedup nomem"},
	{"fetch width 4, 47.8% of", 150_000, "diag.useless", "average", "BW=4"},
	{"falls to 38.0%.", 150_000, "diag.useless", "average", "BW=16"},
	{"li (83.4% at width 16)", 150_000, "diag.useless", "li", "BW=16"},
	{"go (65.8%)", 150_000, "diag.useless", "go", "BW=16"},
	{"hit rate from 42.5%", 150_000, "ablation.partial", "average", "hit% off"},
	{"to 61.2% with the", 150_000, "ablation.partial", "average", "hit% on"},
	{"falls (25.6% →", 150_000, "ablation.partial", "average", "speedup off"},
	{"→ 17.7%):", 150_000, "ablation.partial", "average", "speedup on"},
	{"reaches 86.3% mean branch accuracy", 150_000, "ablation.btb", "average", "acc gshare"},
	{"the 81.3% of our PAp", 150_000, "ablation.btb", "average", "acc 2k"},
	{"slows\n  (7.2 →", 150_000, "ablation.latency", "average", "lat=1 base IPC"},
	{"→ 5.6 IPC at", 150_000, "ablation.latency", "average", "lat=4 base IPC"},
	{"large\n  (42.4% →", 150_000, "ablation.latency", "average", "lat=1 speedup"},
	{"→ 35.1%);", 150_000, "ablation.latency", "average", "lat=4 speedup"},
	// The figure sections, Section 4 and the Ablations list, at 200k.
	{"| measured (average) | 2.5% |", 200_000, "fig3.1", "average", "BW=4"},
	{"| 17.1% |", 200_000, "fig3.1", "average", "BW=8"},
	{"| 41.6% |", 200_000, "fig3.1", "average", "BW=16"},
	{"| 44.1% |", 200_000, "fig3.1", "average", "BW=32"},
	{"| 44.1% |", 200_000, "fig3.1", "average", "BW=40"},
	{"m88ksim (0→72.9%", 200_000, "fig3.1", "m88ksim", "BW=16"},
	{"vortex (8.1→", 200_000, "fig3.1", "vortex", "BW=4"},
	{"→81.3%; paper", 200_000, "fig3.1", "vortex", "BW=16"},
	{"go at 26.7;", 200_000, "fig3.3", "go", "avg DID"},
	{"Measured: 41.9% average", 200_000, "fig3.4", "average", ">=4 total"},
	{"(range 36.7–", 200_000, "fig3.4", "go", ">=4 total"},
	{"–49.6%)", 200_000, "fig3.4", "gcc", ">=4 total"},
	{"| measured (average) | 58.0% |", 200_000, "fig3.5", "average", "unpredictable"},
	{"| 28.5% |", 200_000, "fig3.5", "average", "pred DID<4"},
	{"| 13.5% |", 200_000, "fig3.5", "average", "pred DID>=4"},
	{"(28.5% vs the paper's 23%)", 200_000, "fig3.5", "average", "pred DID<4"},
	{"| measured (average) | 7.9% |", 200_000, "fig5.1", "average", "n=1"},
	{"| 26.8% |", 200_000, "fig5.1", "average", "n=2"},
	{"| 34.8% |", 200_000, "fig5.1", "average", "n=3"},
	{"| 39.4% |", 200_000, "fig5.1", "average", "n=4"},
	{"| 44.1% |", 200_000, "fig5.1", "average", "unlimited"},
	{"| measured (average) | 7.7% |", 200_000, "fig5.2", "average", "n=1"},
	{"| 25.1% (36% below ideal-BTB)", 200_000, "fig5.2", "average", "n=4"},
	{"lifts the average from 25.1%", 200_000, "ablation.btb", "average", "btb-2k speedup"},
	{"to 39.4%).", 200_000, "ablation.btb", "average", "ideal speedup"},
	{"(its 72.9% ideal-BTB speedup", 200_000, "fig5.1", "m88ksim", "n=4"},
	{"collapses to 20.5%", 200_000, "fig5.2", "m88ksim", "n=4"},
	{"| measured (average) | 21.3% |", 200_000, "fig5.3", "average", "TC+2levelBTB"},
	{"| 32.6% |", 200_000, "fig5.3", "average", "TC+idealBTB"},
	{"trace-cache machine: 10.0% of", 200_000, "sec4", "average", "merged %"},
	{"up to 22.4% on ijpeg", 200_000, "sec4", "ijpeg", "merged %"},
	{"and 5.2% are denied", 200_000, "sec4", "average", "denied %"},
	{"falls from 32.6% (16", 200_000, "ablation.banks", "average", "16 banks"},
	{"to 21.6% (1 bank)", 200_000, "ablation.banks", "average", "1 banks"},
	{"IPC (7.3 →", 200_000, "ablation.window", "average", "sched base IPC"},
	{"→ 4.9) and", 200_000, "ablation.window", "average", "ROB base IPC"},
	{"speedup (44.1% →", 200_000, "ablation.window", "average", "sched-window speedup"},
	{"→ 23.2%), moving", 200_000, "ablation.window", "average", "ROB speedup"},
	{"n=4 speedup from 39.4%", 200_000, "ablation.vpenalty", "average", "+0 cycles"},
	{"to 29.9%/", 200_000, "ablation.vpenalty", "average", "+1 cycles"},
	{"/22.0%/", 200_000, "ablation.vpenalty", "average", "+2 cycles"},
	{"/10.5% and", 200_000, "ablation.vpenalty", "average", "+4 cycles"},
	{"stride (48.1%)", 200_000, "ablation.predictor", "average", "stride"},
	{"last-value (10.3%)", 200_000, "ablation.predictor", "average", "last-value"},
	{"(56.6%) wins", 200_000, "ablation.predictor", "average", "fcm2+2bc"},
	{"(go: 53.5% vs", 200_000, "ablation.predictor", "go", "fcm2+2bc"},
	{"stride's\n  8.5%)", 200_000, "ablation.predictor", "go", "stride"},
	{"denials from 40.2%", 200_000, "ablation.hybrid", "average", "denied% stride"},
	{"to 16.9% at 4 banks", 200_000, "ablation.hybrid", "average", "denied% hints"},
	{"n=1 (7.9%)", 200_000, "ablation.fetchmech", "average", "seq n=1"},
	{"collapsing buffer (24.3%)", 200_000, "ablation.fetchmech", "average", "collapsing"},
	{"trace cache (34.9%)", 200_000, "ablation.fetchmech", "average", "trace cache"},
	{"n=4 (39.4%)", 200_000, "ablation.fetchmech", "average", "seq n=4"},
}

// TestExtendedStudiesQuoteRenderedCells renders every table
// EXPERIMENTS.md quotes, at seed 1 and the length its section states, and
// requires each quoted number to match its cell to one decimal and to
// appear as quoted in the part of the file rendered at that length.
func TestExtendedStudiesQuoteRenderedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 25 experiments at 150k and 200k records")
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	before, extended, ok := strings.Cut(string(doc), "## Extended studies")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Extended studies" section`)
	}
	if end := strings.Index(extended, "\n## "); end >= 0 {
		extended = extended[:end]
	}
	sections := map[int]string{150_000: extended, 200_000: before}

	type render struct {
		experiment string
		traceLen   int
	}
	tables := map[render]*Table{}
	number := regexp.MustCompile(`\d+\.\d`)
	for _, q := range extendedStudyQuotes {
		if !strings.Contains(sections[q.traceLen], q.quote) {
			t.Errorf("%q does not appear in the part of EXPERIMENTS.md rendered at %d records", q.quote, q.traceLen)
		}
		key := render{q.experiment, q.traceLen}
		tab, ok := tables[key]
		if !ok {
			p := DefaultParams()
			p.TraceLen = q.traceLen
			if tab, err = RunExperiment(q.experiment, p); err != nil {
				t.Fatalf("%s at %d: %v", q.experiment, q.traceLen, err)
			}
			tables[key] = tab
		}
		cell, ok := tab.Cell(q.row, q.column)
		if !ok {
			t.Errorf("%s has no cell (%s, %s)", q.experiment, q.row, q.column)
			continue
		}
		nums := number.FindAllString(q.quote, -1)
		if want := fmt.Sprintf("%.1f", cell); len(nums) != 1 || nums[0] != want {
			t.Errorf("%q quotes %s (%s, %s) at %d records, which renders as %s",
				q.quote, q.experiment, q.row, q.column, q.traceLen, want)
		}
	}
}

// TestDesignIndexMatchesRegistry requires the backticked ids in the first
// column of DESIGN.md's §5 per-experiment index to be exactly the
// registered experiment ids.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## 5. Per-experiment index")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 5. Per-experiment index" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	first := regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
	var listed []string
	for _, m := range first.FindAllStringSubmatch(section, -1) {
		listed = append(listed, m[1])
	}
	var registered []string
	for _, e := range Experiments() {
		registered = append(registered, e.ID)
	}
	slices.Sort(listed)
	slices.Sort(registered)
	if !slices.Equal(listed, registered) {
		t.Errorf("DESIGN.md §5 lists %v;\nthe registry has %v", listed, registered)
	}
}

package valuepred

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// extendedStudyQuotes lists every number EXPERIMENTS.md's "Extended
// studies" section quotes from a rendered table: the text as quoted,
// holding exactly one number with one decimal, and the cell it quotes.
// A deliberate table change that moves one of these cells fails
// TestExtendedStudiesQuoteRenderedCells until the prose is updated too.
var extendedStudyQuotes = []struct {
	quote                   string
	experiment, row, column string
}{
	{"averages a **0.4%** speedup", "ablation.lipasti", "average", "loads-only speedup"},
	{"versus **45.2%** for all-instruction", "ablation.lipasti", "average", "all-inst speedup"},
	{"21.0% of the value stream", "diag.classes", "average", "load share %"},
	{"(15.2% hit rate", "diag.classes", "average", "load hit %"},
	{"vs 50.9% for ALU results", "diag.classes", "average", "alu hit %"},
	{"stride hit rate from 45.9%", "ablation.twodelta", "average", "stride hit %"},
	{"to 51.6% and", "ablation.twodelta", "average", "2-delta hit %"},
	{"width-16 speedup from 45.2%", "ablation.twodelta", "average", "stride speedup"},
	{"to 53.0%, by not", "ablation.twodelta", "average", "2-delta speedup"},
	{"(42.4% average)", "ablation.vptable", "average", "256 entries"},
	{"64 entries fall to 35.5%", "ablation.vptable", "average", "64 entries"},
	{"16 entries to 27.0%", "ablation.vptable", "average", "16 entries"},
	{"first: 72.7%", "ablation.vptable", "m88ksim", "256 entries"},
	{"→ 19.1% →", "ablation.vptable", "m88ksim", "64 entries"},
	{"→\n  0.0%.", "ablation.vptable", "m88ksim", "16 entries"},
	{"consume 63.5% of cycles", "diag.stalls", "average", "branch-stall % base"},
	{"window (0.6%\n  full)", "diag.stalls", "average", "winfull % base"},
	{"occupancy from 14.9", "diag.stalls", "average", "occupancy base"},
	{"to 11.5 entries", "diag.stalls", "average", "occupancy vp"},
	{"IPC only from 7.2", "diag.memdeps", "average", "base IPC mem"},
	{"to 7.8 and moves", "diag.memdeps", "average", "base IPC nomem"},
	{"speedup only from 42.4%", "diag.memdeps", "average", "speedup mem"},
	{"to 43.5%: the", "diag.memdeps", "average", "speedup nomem"},
	{"fetch width 4, 47.8% of", "diag.useless", "average", "BW=4"},
	{"falls to 38.0%.", "diag.useless", "average", "BW=16"},
	{"li (83.4% at width 16)", "diag.useless", "li", "BW=16"},
	{"go (65.8%)", "diag.useless", "go", "BW=16"},
	{"hit rate from 42.5%", "ablation.partial", "average", "hit% off"},
	{"to 61.2% with the", "ablation.partial", "average", "hit% on"},
	{"falls (25.6% →", "ablation.partial", "average", "speedup off"},
	{"→ 17.7%):", "ablation.partial", "average", "speedup on"},
	{"reaches 86.3% mean branch accuracy", "ablation.btb", "average", "acc gshare"},
	{"the 81.3% of our PAp", "ablation.btb", "average", "acc 2k"},
	{"slows\n  (7.2 →", "ablation.latency", "average", "lat=1 base IPC"},
	{"→ 5.6 IPC at", "ablation.latency", "average", "lat=4 base IPC"},
	{"large\n  (42.4% →", "ablation.latency", "average", "lat=1 speedup"},
	{"→ 35.1%);", "ablation.latency", "average", "lat=4 speedup"},
}

// TestExtendedStudiesQuoteRenderedCells renders every table the "Extended
// studies" section of EXPERIMENTS.md quotes, at the section's 150k records
// and seed 1, and requires each quoted number to match its cell to one
// decimal and to appear in the section as quoted.
func TestExtendedStudiesQuoteRenderedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("renders ten experiments at 150k records")
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "## Extended studies")
	if start < 0 {
		t.Fatal(`EXPERIMENTS.md has no "## Extended studies" section`)
	}
	section = section[start:]
	if end := strings.Index(section[2:], "\n## "); end >= 0 {
		section = section[:end+2]
	}

	p := DefaultParams()
	p.TraceLen = 150_000
	tables := map[string]*Table{}
	number := regexp.MustCompile(`\d+\.\d`)
	for _, q := range extendedStudyQuotes {
		if !strings.Contains(section, q.quote) {
			t.Errorf("%q does not appear in the Extended studies section", q.quote)
		}
		tab, ok := tables[q.experiment]
		if !ok {
			if tab, err = RunExperiment(q.experiment, p); err != nil {
				t.Fatalf("%s: %v", q.experiment, err)
			}
			tables[q.experiment] = tab
		}
		cell, ok := tab.Cell(q.row, q.column)
		if !ok {
			t.Errorf("%s has no cell (%s, %s)", q.experiment, q.row, q.column)
			continue
		}
		nums := number.FindAllString(q.quote, -1)
		if want := fmt.Sprintf("%.1f", cell); len(nums) != 1 || nums[0] != want {
			t.Errorf("%q quotes %s (%s, %s), which renders as %s", q.quote, q.experiment, q.row, q.column, want)
		}
	}
}

package experiment

import (
	"fmt"

	"valuepred/internal/ideal"
)

func init() {
	register("diag.useless",
		"Diagnostic — fraction of correct value predictions that are useless, by fetch width",
		DiagUseless)
}

// DiagUselessWidths is the fetch-width sweep of diag.useless.
var DiagUselessWidths = []int{4, 8, 16, 40}

// DiagUseless measures the paper's central phenomenon directly: the share
// of *correct* value predictions that decouple no consumer because the
// producer had already executed when the consumer issued — i.e. the
// prediction was correct but useless. At fetch width 4 most correct
// predictions are wasted; widening the front end converts them into used
// predictions (Section 3's argument, quantified).
func DiagUseless(p Params) (*Table, error) {
	t := &Table{
		Title:     "Diagnostic — useless fraction of correct predictions vs fetch width (ideal machine)",
		RowHeader: "benchmark",
		Unit:      "%",
	}
	for _, w := range DiagUselessWidths {
		t.Columns = append(t.Columns, fmt.Sprintf("BW=%d", w))
	}
	feeds, outs, err := p.record("diag.useless", classifiedStride)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("diag.useless")
	for _, name := range p.workloads() {
		f := feeds[name]
		for _, w := range DiagUselessWidths {
			g.cell(name, fmt.Sprintf("BW=%d", w), "vp", func() (any, error) {
				cfg := ideal.DefaultConfig(w)
				cfg.Outcomes = outs.outcomes(name, classifiedStride)
				return ideal.Run(f.source(), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		var cells []float64
		for _, w := range DiagUselessWidths {
			r := res.get(name, fmt.Sprintf("BW=%d", w), "vp").(ideal.Result)
			if r.Correct == 0 {
				cells = append(cells, 0)
				continue
			}
			cells = append(cells, 100*float64(r.Useless())/float64(r.Correct))
		}
		t.AddRow(name, cells...)
	}
	t.AppendAverage()
	t.AddNote("a useless prediction is correct but its consumers' operands were ready anyway")
	return t, nil
}

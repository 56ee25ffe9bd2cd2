package valuepred

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"valuepred/internal/tracestore"
)

// TestShortTracesRenderFinite runs every registered experiment on traces
// so short that some workloads have no dependence arcs, no branches or no
// predictions at all (at one record none has any), and requires every
// cell to be finite and every output format to render cleanly: a NaN
// cell panics the chart's bar scaling, fails JSON encoding, and prints
// "NaN" into the text, CSV and Markdown tables.
func TestShortTracesRenderFinite(t *testing.T) {
	renders := []struct {
		name   string
		render func(*Table, io.Writer) error
	}{
		{"text", (*Table).Render},
		{"csv", (*Table).RenderCSV},
		{"md", (*Table).RenderMarkdown},
		{"chart", (*Table).RenderChart},
		{"json", func(tab *Table, w io.Writer) error { return json.NewEncoder(w).Encode(tab) }},
	}
	for _, n := range []int{1, 10} {
		p := DefaultParams()
		p.TraceLen = n
		p.Store = tracestore.New(0)
		for _, e := range Experiments() {
			tab, err := RunExperiment(e.ID, p)
			if err != nil {
				t.Errorf("%s at -len %d: %v", e.ID, n, err)
				continue
			}
		cells:
			for _, r := range tab.Rows {
				for i, c := range r.Cells {
					if math.IsNaN(c) || math.IsInf(c, 0) {
						t.Errorf("%s at -len %d: row %s, column %s is %v", e.ID, n, r.Label, tab.Columns[i], c)
						break cells
					}
				}
			}
			for _, rd := range renders {
				if err := renderSafely(tab, rd.render); err != nil {
					t.Errorf("%s at -len %d: %s rendering: %v", e.ID, n, rd.name, err)
				}
			}
		}
	}
}

// renderSafely renders tab, turning a panic into an error so one broken
// experiment does not hide the others.
func renderSafely(tab *Table, render func(*Table, io.Writer) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	var sb strings.Builder
	if err := render(tab, &sb); err != nil {
		return err
	}
	if strings.Contains(sb.String(), "NaN") {
		return errors.New("output contains NaN")
	}
	return nil
}

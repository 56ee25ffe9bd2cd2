package experiment

import (
	"fmt"

	"valuepred/internal/dfg"
)

// Fig31Widths are the fetch/issue widths swept by Figure 3.1.
var Fig31Widths = []int{4, 8, 16, 32, 40}

// widthCols labels a fetch-width sweep's columns; widthMachines gives the
// ideal machine at each width.
func widthCols(ws []int) []string {
	var cols []string
	for _, w := range ws {
		cols = append(cols, fmt.Sprintf("BW=%d", w))
	}
	return cols
}

func widthMachines(ws []int) []machine {
	var ms []machine
	for _, w := range ws {
		ms = append(ms, idealAt(w))
	}
	return ms
}

// The Section 3 figures: the ideal-machine sweep and the three views of
// the register dataflow graph.
func init() {
	fig31 := widthCols(Fig31Widths)
	dfgCell := []cell{{"", "dfg", machine{kind: "dfg"}}}
	analysis := func(r row) *dfg.Analysis { return r.get("", "dfg").(*dfg.Analysis) }
	var buckets []string
	for b := dfg.BucketDID1; b < dfg.NumBuckets; b++ {
		buckets = append(buckets, b.String())
	}
	declare(
		// Figure 3.1: the speedup of the stride+classifier value predictor
		// on the ideal machine over the same machine without it, at each
		// fetch width.
		decl{
			id:      "fig3.1",
			desc:    "Figure 3.1 — VP speedup vs fetch width on the ideal machine",
			title:   "Figure 3.1 — value-prediction speedup vs instruction-fetch rate (ideal machine)",
			columns: fig31,
			unit:    "%",
			preds:   []vpSpec{classifiedStride},
			cells:   pairs(fig31, widthMachines(Fig31Widths), strideVP),
			row:     func(r row) []float64 { return r.speedups(fig31, false) },
		},
		// Figure 3.3: the average DID over the register dataflow graph of
		// the full trace.
		decl{
			id:      "fig3.3",
			desc:    "Figure 3.3 — average dynamic instruction distance",
			title:   "Figure 3.3 — average dynamic instruction distance",
			columns: []string{"avg DID", "median bucket floor"},
			cells:   dfgCell,
			row: func(r row) []float64 {
				a := analysis(r)
				return []float64{a.AvgDID(), medianBucketFloor(a)}
			},
			notes: []string{"long-lived base registers give a heavy tail; the median bucket floor column shows the typical distance"},
		},
		// Figure 3.4: the distribution of dependencies by DID.
		decl{
			id:      "fig3.4",
			desc:    "Figure 3.4 — distribution of dependencies by DID",
			title:   "Figure 3.4 — distribution of dependencies by DID (percent of arcs)",
			columns: append(buckets, ">=4 total"),
			unit:    "%",
			cells:   dfgCell,
			row: func(r row) []float64 {
				a := analysis(r)
				var cells []float64
				for b := dfg.BucketDID1; b < dfg.NumBuckets; b++ {
					cells = append(cells, a.PctOfArcs(a.Hist[b]))
				}
				return append(cells, 100*a.FracDIDAtLeast4())
			},
		},
		// Figure 3.5: dependencies classified by the stride predictability
		// of their producer instance and by DID.
		decl{
			id:      "fig3.5",
			desc:    "Figure 3.5 — dependencies by value predictability and DID",
			title:   "Figure 3.5 — dependencies by value predictability and DID (percent of arcs)",
			columns: []string{"unpredictable", "pred DID<4", "pred DID>=4"},
			unit:    "%",
			cells:   dfgCell,
			row: func(r row) []float64 {
				a := analysis(r)
				return []float64{a.PctOfArcs(a.Unpredictable), 100 * a.FracPredictableShort(), 100 * a.FracPredictableLong()}
			},
		},
	)
}

// medianBucketFloor returns the lower bound of the histogram bucket
// containing the median arc.
func medianBucketFloor(a *dfg.Analysis) float64 {
	floors := []float64{1, 2, 3, 4, 8, 16, 32}
	var cum uint64
	for b := dfg.BucketDID1; b < dfg.NumBuckets; b++ {
		cum += a.Hist[b]
		if cum*2 >= a.Arcs {
			return floors[b]
		}
	}
	return 32
}

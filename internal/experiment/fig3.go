package experiment

import (
	"fmt"
	"strings"

	"valuepred/internal/asm"
	"valuepred/internal/dfg"
	"valuepred/internal/emu"
	"valuepred/internal/ideal"
	"valuepred/internal/isa"
	"valuepred/internal/trace"
)

func init() {
	register("table3.1", "Table 3.1 — the SPEC95-integer benchmark analogues", Table31)
	register("table3.2", "Table 3.2 — pipeline walk-through of the Figure 3.2 example", Table32)
	register("fig3.1", "Figure 3.1 — VP speedup vs fetch width on the ideal machine", Fig31)
	register("fig3.3", "Figure 3.3 — average dynamic instruction distance", Fig33)
	register("fig3.4", "Figure 3.4 — distribution of dependencies by DID", Fig34)
	register("fig3.5", "Figure 3.5 — dependencies by value predictability and DID", Fig35)
}

// Fig31Widths are the fetch/issue widths swept by Figure 3.1.
var Fig31Widths = []int{4, 8, 16, 32, 40}

// Fig31 reproduces Figure 3.1: speedup of the stride+classifier value
// predictor on the ideal machine, relative to the same machine without
// value prediction, at each fetch width. The full workload × width ×
// {base, vp} product — 80 independent simulations over the paper's eight
// benchmarks — is declared as one plan grid; the vp cells replay each
// workload's one recorded outcome stream, and speedups are computed at the
// keyed merge.
func Fig31(p Params) (*Table, error) {
	feeds, outs, err := p.record("fig3.1", classifiedStride)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Figure 3.1 — value-prediction speedup vs instruction-fetch rate (ideal machine)",
		RowHeader: "benchmark",
		Unit:      "%",
	}
	for _, w := range Fig31Widths {
		t.Columns = append(t.Columns, fmt.Sprintf("BW=%d", w))
	}
	g := p.newGrid("fig3.1")
	for _, name := range p.workloads() {
		f := feeds[name]
		for _, w := range Fig31Widths {
			wl := fmt.Sprintf("BW=%d", w)
			g.cell(name, wl, "base", func() (any, error) {
				cfg := ideal.DefaultConfig(w)
				cfg.Obs = p.track("fig3.1", name, wl, "base")
				return ideal.Run(f.source(), cfg)
			})
			g.cell(name, wl, "vp", func() (any, error) {
				cfg := ideal.DefaultConfig(w)
				cfg.Outcomes = outs.outcomes(name, classifiedStride)
				cfg.Obs = p.track("fig3.1", name, wl, "vp")
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
		for _, w := range Fig31Widths {
			wl := fmt.Sprintf("BW=%d", w)
			base := res.get(name, wl, "base").(ideal.Result)
			vp := res.get(name, wl, "vp").(ideal.Result)
			cells = append(cells, ideal.Speedup(base, vp))
		}
		t.AddRow(name, cells...)
	}
	t.AppendAverage()
	return t, nil
}

// dfgGrid runs one dfg.Analyze cell per selected workload on the shared
// pool and returns the analyses keyed by workload (the common skeleton of
// Figures 3.3–3.5).
func dfgGrid(p Params, id string) (*gridResults, error) {
	feeds, err := p.feeds()
	if err != nil {
		return nil, err
	}
	g := p.newGrid(id)
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "dfg", func() (any, error) {
			return dfg.AnalyzeSource(f.source(), dfg.Config{}), nil
		})
	}
	return g.run()
}

// Fig33 reproduces Figure 3.3: the average DID per benchmark, over the
// register dataflow graph of the full trace.
func Fig33(p Params) (*Table, error) {
	res, err := dfgGrid(p, "fig3.3")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Figure 3.3 — average dynamic instruction distance",
		RowHeader: "benchmark",
		Columns:   []string{"avg DID", "median bucket floor"},
	}
	for _, name := range p.workloads() {
		a := res.get(name, "", "dfg").(*dfg.Analysis)
		t.AddRow(name, a.AvgDID(), medianBucketFloor(a))
	}
	t.AppendAverage()
	t.AddNote("long-lived base registers give a heavy tail; the median bucket floor column shows the typical distance")
	return t, nil
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

// Fig34 reproduces Figure 3.4: the distribution of dependencies by DID.
func Fig34(p Params) (*Table, error) {
	res, err := dfgGrid(p, "fig3.4")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Figure 3.4 — distribution of dependencies by DID (percent of arcs)",
		RowHeader: "benchmark",
		Unit:      "%",
	}
	for b := dfg.BucketDID1; b < dfg.NumBuckets; b++ {
		t.Columns = append(t.Columns, b.String())
	}
	t.Columns = append(t.Columns, ">=4 total")
	for _, name := range p.workloads() {
		a := res.get(name, "", "dfg").(*dfg.Analysis)
		var cells []float64
		for b := dfg.BucketDID1; b < dfg.NumBuckets; b++ {
			cells = append(cells, a.PctOfArcs(a.Hist[b]))
		}
		cells = append(cells, 100*a.FracDIDAtLeast4())
		t.AddRow(name, cells...)
	}
	t.AppendAverage()
	return t, nil
}

// Fig35 reproduces Figure 3.5: dependencies classified by the stride
// predictability of their producer instance and by DID.
func Fig35(p Params) (*Table, error) {
	res, err := dfgGrid(p, "fig3.5")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Figure 3.5 — dependencies by value predictability and DID (percent of arcs)",
		RowHeader: "benchmark",
		Columns:   []string{"unpredictable", "pred DID<4", "pred DID>=4"},
		Unit:      "%",
	}
	for _, name := range p.workloads() {
		a := res.get(name, "", "dfg").(*dfg.Analysis)
		t.AddRow(name,
			a.PctOfArcs(a.Unpredictable),
			100*a.FracPredictableShort(),
			100*a.FracPredictableLong())
	}
	t.AppendAverage()
	return t, nil
}

// Table31 renders the benchmark descriptions (Table 3.1).
func Table31(p Params) (*Table, error) {
	t := &Table{
		Title:     "Table 3.1 — SPEC95 integer benchmark analogues",
		RowHeader: "benchmark",
		Columns:   []string{"trace insts"},
	}
	for _, name := range p.workloads() {
		s, _ := workloadGet(name)
		t.AddRow(name, float64(p.TraceLen))
		t.AddNote("%s: %s", name, s)
	}
	return t, nil
}

// Table32 reproduces the paper's pipeline walk-through: the 8-instruction
// dataflow graph of Figure 3.2 executed on a 4-wide machine with a perfect
// value predictor. The note lines render the paper's cycle table; the cells
// give each instruction's execute cycle.
func Table32(Params) (*Table, error) {
	recs, err := fig32Trace()
	if err != nil {
		return nil, err
	}
	execAt := make(map[uint64]uint64)
	fetchAt := make(map[uint64]uint64)
	cfg := ideal.DefaultConfig(4)
	cfg.OracleVP = true
	cfg.Observer = func(seq, fetch, exec uint64) {
		fetchAt[seq] = fetch
		execAt[seq] = exec
	}
	if _, err := ideal.Run(trace.NewSliceSource(recs), cfg); err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Table 3.2 — instructions progressing through the pipeline (Figure 3.2 DFG, width 4, perfect VP)",
		RowHeader: "instruction",
		Columns:   []string{"fetch", "decode/issue", "execute", "commit"},
	}
	var maxCycle uint64
	for i := range recs {
		seq := recs[i].Seq
		t.AddRow(fmt.Sprintf("#%d", seq+1),
			float64(fetchAt[seq]), float64(fetchAt[seq]+1), float64(execAt[seq]), float64(execAt[seq]+1))
		if execAt[seq]+1 > maxCycle {
			maxCycle = execAt[seq] + 1
		}
	}
	// Render the paper's per-cycle view as notes.
	stages := []string{"fetch", "decode/issue", "execute", "commit"}
	for c := uint64(1); c <= maxCycle; c++ {
		var parts []string
		for si, stage := range stages {
			var in []string
			for i := range recs {
				seq := recs[i].Seq
				var at uint64
				switch si {
				case 0:
					at = fetchAt[seq]
				case 1:
					at = fetchAt[seq] + 1
				case 2:
					at = execAt[seq]
				case 3:
					at = execAt[seq] + 1
				}
				if at == c {
					in = append(in, fmt.Sprintf("%d", seq+1))
				}
			}
			if len(in) > 0 {
				parts = append(parts, fmt.Sprintf("%s: %s", stage, strings.Join(in, ",")))
			}
		}
		t.AddNote("cycle %d  %s", c, strings.Join(parts, "  |  "))
	}
	return t, nil
}

// fig32Trace builds the paper's Figure 3.2 example: eight instructions
// with arcs 1→2 (DID 1), 2→4 (DID 2), 1→5 (DID 4), 3→7 (DID 4),
// 5→6 (DID 1) and 7→8 (DID 1).
func fig32Trace() ([]trace.Rec, error) {
	b := asm.NewBuilder()
	b.Addi(isa.T0, isa.Zero, 1) // 1
	b.Addi(isa.T1, isa.T0, 1)   // 2: depends on 1
	b.Addi(isa.T2, isa.Zero, 3) // 3
	b.Addi(isa.T3, isa.T1, 1)   // 4: depends on 2
	b.Addi(isa.T4, isa.T0, 2)   // 5: depends on 1
	b.Addi(isa.T5, isa.T4, 1)   // 6: depends on 5
	b.Addi(isa.T6, isa.T2, 2)   // 7: depends on 3
	b.Addi(isa.S0, isa.T6, 1)   // 8: depends on 7
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		return nil, err
	}
	return emu.New(prog).Run(0), nil
}

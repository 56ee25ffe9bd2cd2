package experiment

import (
	"valuepred/internal/fetch"
	"valuepred/internal/pipeline"
)

func init() {
	register("diag.stalls",
		"Diagnostic — front-end stall breakdown on the Section 5 machine (2-level BTB, n=4)",
		DiagStalls)
}

// DiagStalls decomposes where the Section 5 machine's cycles go: branch
// redirect bubbles, window-full back-pressure, and the average window
// occupancy, with and without value prediction. It quantifies the paper's
// narrative that value prediction drains the window faster, converting
// dependence stalls into fetch demand.
func DiagStalls(p Params) (*Table, error) {
	t := &Table{
		Title:     "Diagnostic — stall breakdown (sequential fetch, n=4, 2-level BTB)",
		RowHeader: "benchmark",
		Columns: []string{
			"base IPC", "vp IPC",
			"branch-stall % base", "branch-stall % vp",
			"winfull % base", "winfull % vp",
			"occupancy base", "occupancy vp",
		},
	}
	feeds, outs, err := p.record("diag.stalls", classifiedStride)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("diag.stalls")
	for _, name := range p.workloads() {
		f := feeds[name]
		for _, variant := range []string{"base", "vp"} {
			g.cell(name, "", variant, func() (any, error) {
				cfg := pipeline.DefaultConfig()
				if variant == "vp" {
					cfg.Outcomes = outs.outcomes(name, classifiedStride)
				}
				cfg.Obs = p.track("diag.stalls", name, variant)
				return pipeline.Run(fetch.NewSequentialSource(f.source(), twoLevelBTB(), 4), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		base := res.get(name, "", "base").(pipeline.Result)
		vp := res.get(name, "", "vp").(pipeline.Result)
		pct := func(n, d uint64) float64 { return 100 * float64(n) / float64(d) }
		t.AddRow(name,
			base.IPC(), vp.IPC(),
			pct(base.BranchStallCycles, base.Cycles), pct(vp.BranchStallCycles, vp.Cycles),
			pct(base.WindowFullCycles, base.Cycles), pct(vp.WindowFullCycles, vp.Cycles),
			base.AvgOccupancy(), vp.AvgOccupancy(),
		)
	}
	t.AppendAverage()
	return t, nil
}

package experiment

import (
	"valuepred/internal/ideal"
	"valuepred/internal/predictor"
)

func init() {
	register("ablation.lipasti",
		"Ablation — load-value-only prediction [13] vs all-instruction prediction [7]",
		AblationLipasti)
	register("ablation.twodelta",
		"Ablation — plain stride vs two-delta stride update policy",
		AblationTwoDelta)
}

// replayCell builds the vp cell body shared by the ablation.lipasti and
// ablation.twodelta schemes: the ideal machine at width 16, replaying the
// workload's outcome stream under spec. The scheme's raw trace accuracy
// comes from the pass that recorded the stream.
func replayCell(f feed, outs *gridResults, name string, spec vpSpec) func() (any, error) {
	return func() (any, error) {
		cfg := ideal.DefaultConfig(16)
		cfg.Outcomes = outs.outcomes(name, spec)
		return ideal.Run(f.source(), cfg)
	}
}

// AblationLipasti contrasts the original load-value prediction of Lipasti,
// Wilkerson & Shen (reference [13]: predict loads only) with the paper's
// all-instruction value prediction, on the ideal machine at width 16. The
// last two columns give each scheme's prediction coverage (correct
// confident predictions per value-producing instruction).
func AblationLipasti(p Params) (*Table, error) {
	t := &Table{
		Title:     "Ablation — loads-only [13] vs all-instruction [7] value prediction (ideal machine, width 16)",
		RowHeader: "benchmark",
		Columns:   []string{"loads-only speedup", "all-inst speedup", "loads-only coverage %", "all-inst coverage %"},
	}
	schemes := []vpSpec{
		{"loads-only", func(f feed) predictor.Predictor {
			return predictor.NewLoadsOnlyFromSource(predictor.NewClassifiedStride(), f.source())
		}},
		{"all-inst", classifiedStride.mk},
	}
	feeds, outs, err := p.record("ablation.lipasti", schemes...)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("ablation.lipasti")
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "base", func() (any, error) {
			return ideal.Run(f.source(), ideal.DefaultConfig(16))
		})
		for _, s := range schemes {
			g.cell(name, "", s.name, replayCell(f, outs, name, s))
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		base := res.get(name, "", "base").(ideal.Result)
		var speedups, coverages []float64
		for _, s := range schemes {
			speedups = append(speedups, ideal.Speedup(base, res.get(name, "", s.name).(ideal.Result)))
			coverages = append(coverages, 100*outs.accuracy(name, s).ConfidentCoverage())
		}
		t.AddRow(name, speedups[0], speedups[1], coverages[0], coverages[1])
	}
	t.AppendAverage()
	t.AddNote("loads-only reproduces the [13]-style result: less coverage, much less speedup")
	return t, nil
}

// AblationTwoDelta compares the plain stride update rule against the
// two-delta rule of the paper's technical reports on raw accuracy and on
// ideal-machine speedup at width 16.
func AblationTwoDelta(p Params) (*Table, error) {
	t := &Table{
		Title:     "Ablation — stride vs two-delta stride (ideal machine, width 16)",
		RowHeader: "benchmark",
		Columns:   []string{"stride speedup", "2-delta speedup", "stride hit %", "2-delta hit %"},
	}
	schemes := []vpSpec{
		{"stride", classifiedStride.mk},
		{"2-delta", func(feed) predictor.Predictor { return predictor.NewClassifiedTwoDelta() }},
	}
	feeds, outs, err := p.record("ablation.twodelta", schemes...)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("ablation.twodelta")
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "base", func() (any, error) {
			return ideal.Run(f.source(), ideal.DefaultConfig(16))
		})
		for _, s := range schemes {
			g.cell(name, "", s.name, replayCell(f, outs, name, s))
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		base := res.get(name, "", "base").(ideal.Result)
		var speedups, hits []float64
		for _, s := range schemes {
			speedups = append(speedups, ideal.Speedup(base, res.get(name, "", s.name).(ideal.Result)))
			hits = append(hits, 100*outs.accuracy(name, s).HitRate())
		}
		t.AddRow(name, speedups[0], speedups[1], hits[0], hits[1])
	}
	t.AppendAverage()
	return t, nil
}

package experiment

import (
	"valuepred/internal/btb"
	"valuepred/internal/fetch"
	"valuepred/internal/ideal"
	"valuepred/internal/pipeline"
	"valuepred/internal/predictor"
)

func init() {
	register("ablation.predictor", "Ablation — value-predictor organisations on the ideal machine (width 16)", AblationPredictor)
	register("ablation.btb", "Ablation — BTB quality vs value-prediction speedup (Section 5 claim)", AblationBTB)
	register("ablation.fetchmech", "Ablation — high-bandwidth fetch mechanisms (Section 2.2 survey)", AblationFetchMech)
}

// AblationPredictor compares value-predictor organisations on the ideal
// machine at fetch width 16: last-value, stride, classified stride
// (the paper's choice), classified FCM and the hybrid.
func AblationPredictor(p Params) (*Table, error) {
	variants := []vpSpec{
		{"last-value", func(feed) predictor.Predictor { return predictor.NewLastValue() }},
		{"stride", func(feed) predictor.Predictor { return predictor.NewStride() }},
		classifiedStride,
		{"fcm2+2bc", func(feed) predictor.Predictor { return predictor.NewClassifiedFCM(2) }},
		{"hybrid+hints", func(f feed) predictor.Predictor {
			return predictor.NewHybrid(1024, predictor.ProfileSource(f.prefix(f.Len()/4), 0.6))
		}},
	}
	feeds, outs, err := p.record("ablation.predictor", variants...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Ablation — predictor organisations (ideal machine, fetch width 16)",
		RowHeader: "benchmark",
		Unit:      "%",
	}
	for _, v := range variants {
		t.Columns = append(t.Columns, v.name)
	}
	g := p.newGrid("ablation.predictor")
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "base", func() (any, error) {
			return ideal.Run(f.source(), ideal.DefaultConfig(16))
		})
		for _, v := range variants {
			g.cell(name, v.name, "vp", func() (any, error) {
				cfg := ideal.DefaultConfig(16)
				cfg.Outcomes = outs.outcomes(name, v)
				return ideal.Run(f.source(), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		base := res.get(name, "", "base").(ideal.Result)
		var cells []float64
		for _, v := range variants {
			vp := res.get(name, v.name, "vp").(ideal.Result)
			cells = append(cells, ideal.Speedup(base, vp))
		}
		t.AddRow(name, cells...)
	}
	t.AppendAverage()
	return t, nil
}

// AblationBTB quantifies the paper's Section 5 observation that "any small
// improvement in the BTB accuracy can considerably affect the performance
// gain of value prediction": it sweeps BTB configurations at 4 taken
// branches per cycle and reports branch accuracy alongside VP speedup.
func AblationBTB(p Params) (*Table, error) {
	type variant struct {
		name string
		mk   branchMaker
	}
	variants := []variant{
		{"btb-512", func() btb.Predictor {
			return btb.NewTwoLevel(btb.TwoLevelConfig{Entries: 512, Ways: 2, HistoryBits: 4})
		}},
		{"btb-2k", twoLevelBTB},
		{"btb-8k/h6", func() btb.Predictor {
			return btb.NewTwoLevel(btb.TwoLevelConfig{Entries: 8192, Ways: 4, HistoryBits: 6})
		}},
		{"gshare", func() btb.Predictor { return btb.NewGShare(btb.DefaultGShareConfig()) }},
		{"ideal", perfectBTB},
	}
	t := &Table{
		Title:     "Ablation — BTB quality vs value-prediction speedup (sequential fetch, n=4)",
		RowHeader: "benchmark",
	}
	for _, v := range variants {
		t.Columns = append(t.Columns, v.name+" speedup")
	}
	t.Columns = append(t.Columns, "acc 512", "acc 2k", "acc 8k", "acc gshare")
	feeds, outs, err := p.record("ablation.btb", classifiedStride)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("ablation.btb")
	for _, name := range p.workloads() {
		f := feeds[name]
		for _, v := range variants {
			g.cell(name, v.name, "base", func() (any, error) {
				return pipeline.Run(fetch.NewSequentialSource(f.source(), v.mk(), 4), pipeline.DefaultConfig())
			})
			g.cell(name, v.name, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.Outcomes = outs.outcomes(name, classifiedStride)
				return pipeline.Run(fetch.NewSequentialSource(f.source(), v.mk(), 4), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		var speedups, accs []float64
		for _, v := range variants {
			base := res.get(name, v.name, "base").(pipeline.Result)
			vp := res.get(name, v.name, "vp").(pipeline.Result)
			speedups = append(speedups, pipeline.Speedup(base, vp))
			if v.name != "ideal" {
				accs = append(accs, 100*vp.Fetch.BranchAccuracy())
			}
		}
		t.AddRow(name, append(speedups, accs...)...)
	}
	t.AppendAverage()
	return t, nil
}

// AblationFetchMech compares the high-bandwidth fetch mechanisms the paper
// surveys in Section 2.2 as hosts for value prediction: single-branch
// sequential fetch, the collapsing buffer (two noncontiguous cache lines),
// multiple-branch sequential fetch, and the trace cache. All use the ideal
// BTB so the comparison isolates the fetch mechanism.
func AblationFetchMech(p Params) (*Table, error) {
	type variant struct {
		name string
		mk   func(f feed) fetch.Engine
	}
	variants := []variant{
		{"seq n=1", func(f feed) fetch.Engine { return fetch.NewSequentialSource(f.source(), perfectBTB(), 1) }},
		{"collapsing", func(f feed) fetch.Engine {
			return fetch.NewCollapsingBufferSource(f.source(), perfectBTB(), fetch.DefaultCBConfig())
		}},
		{"seq n=4", func(f feed) fetch.Engine { return fetch.NewSequentialSource(f.source(), perfectBTB(), 4) }},
		{"trace cache", func(f feed) fetch.Engine {
			return fetch.NewTraceCacheSource(f.source(), perfectBTB(), fetch.DefaultTCConfig())
		}},
	}
	t := &Table{
		Title:     "Ablation — fetch mechanism vs value-prediction speedup (ideal BTB)",
		RowHeader: "benchmark",
		Unit:      "%",
	}
	for _, v := range variants {
		t.Columns = append(t.Columns, v.name)
	}
	feeds, outs, err := p.record("ablation.fetchmech", classifiedStride)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("ablation.fetchmech")
	for _, name := range p.workloads() {
		f := feeds[name]
		for _, v := range variants {
			g.cell(name, v.name, "base", func() (any, error) {
				return pipeline.Run(v.mk(f), pipeline.DefaultConfig())
			})
			g.cell(name, v.name, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.Outcomes = outs.outcomes(name, classifiedStride)
				return pipeline.Run(v.mk(f), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		var cells []float64
		for _, v := range variants {
			base := res.get(name, v.name, "base").(pipeline.Result)
			vp := res.get(name, v.name, "vp").(pipeline.Result)
			cells = append(cells, pipeline.Speedup(base, vp))
		}
		t.AddRow(name, cells...)
	}
	t.AppendAverage()
	t.AddNote("speedups are relative to the same fetch mechanism without value prediction")
	return t, nil
}

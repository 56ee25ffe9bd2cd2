package experiment

import (
	"fmt"

	"valuepred/internal/btb"
	"valuepred/internal/core"
	"valuepred/internal/fetch"
	"valuepred/internal/pipeline"
)

func init() {
	register("fig5.1", "Figure 5.1 — VP speedup vs taken branches/cycle, ideal BTB", Fig51)
	register("fig5.2", "Figure 5.2 — VP speedup vs taken branches/cycle, 2-level BTB", Fig52)
	register("fig5.3", "Figure 5.3 — VP speedup with a trace cache", Fig53)
	register("sec4", "Section 4 — prediction-network router/distributor statistics", Sec4)
}

// Fig5Taken are the taken-branch-per-cycle limits swept by Figures 5.1 and
// 5.2 (-1 is the paper's "unlimited").
var Fig5Taken = []int{1, 2, 3, 4, -1}

func takenLabel(n int) string {
	if n < 0 {
		return "unlimited"
	}
	return fmt.Sprintf("n=%d", n)
}

// branchMaker builds a fresh branch predictor per run.
type branchMaker func() btb.Predictor

func perfectBTB() btb.Predictor  { return btb.NewPerfect() }
func twoLevelBTB() btb.Predictor { return btb.NewTwoLevel(btb.DefaultTwoLevelConfig()) }

// sequentialSpeedups runs the Section 5 machine over every workload and
// taken-branch limit, with and without value prediction, as one plan grid
// (workload × limit × {base, vp} cells); the vp cells replay each
// workload's one recorded outcome stream. id labels the figure's
// observability tracks and the grid's canonical keys. The accuracy note
// is summed at the merge in presentation order — per workload over the
// Fig5Taken sweep, then across workloads — so the float64 addition order
// (addition is not associative) never depends on cell scheduling.
func sequentialSpeedups(p Params, id, title string, mkBTB branchMaker) (*Table, error) {
	feeds, outs, err := p.record(id, classifiedStride)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, RowHeader: "benchmark", Unit: "%"}
	for _, n := range Fig5Taken {
		t.Columns = append(t.Columns, takenLabel(n))
	}
	g := p.newGrid(id)
	for _, name := range p.workloads() {
		f := feeds[name]
		for _, n := range Fig5Taken {
			wl := takenLabel(n)
			g.cell(name, wl, "base", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.Obs = p.track(id, name, wl, "base")
				return pipeline.Run(fetch.NewSequentialSource(f.source(), mkBTB(), n), cfg)
			})
			g.cell(name, wl, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.Outcomes = outs.outcomes(name, classifiedStride)
				cfg.Obs = p.track(id, name, wl, "vp")
				return pipeline.Run(fetch.NewSequentialSource(f.source(), mkBTB(), n), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	agg := p.noteAgg("branch_accuracy",
		"mean branch prediction accuracy across runs: %.1f%%", 100, len(Fig5Taken))
	for _, name := range p.workloads() {
		var cells []float64
		var acc float64
		for _, n := range Fig5Taken {
			wl := takenLabel(n)
			base := res.get(name, wl, "base").(pipeline.Result)
			vp := res.get(name, wl, "vp").(pipeline.Result)
			cells = append(cells, pipeline.Speedup(base, vp))
			acc += vp.Fetch.BranchAccuracy()
		}
		t.AddRow(name, cells...)
		agg.contrib(name, acc)
	}
	t.AppendAverage()
	agg.render(t)
	return t, nil
}

// Fig51 reproduces Figure 5.1: the realistic machine with a perfect branch
// predictor.
func Fig51(p Params) (*Table, error) {
	return sequentialSpeedups(p, "fig5.1",
		"Figure 5.1 — value-prediction speedup vs max taken branches/cycle (ideal BTB)",
		perfectBTB)
}

// Fig52 reproduces Figure 5.2: the same sweep with the 2-level PAp BTB.
func Fig52(p Params) (*Table, error) {
	return sequentialSpeedups(p, "fig5.2",
		"Figure 5.2 — value-prediction speedup vs max taken branches/cycle (2-level BTB)",
		twoLevelBTB)
}

// Fig53 reproduces Figure 5.3: the trace-cache machine, with the banked
// prediction network delivering values, under both branch predictors.
func Fig53(p Params) (*Table, error) {
	feeds, err := p.feeds()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Figure 5.3 — value-prediction speedup with a trace cache",
		RowHeader: "benchmark",
		Columns:   []string{"TC+2levelBTB", "TC+idealBTB"},
		Unit:      "%",
	}
	// As in sequentialSpeedups: the hit-rate note is summed at the keyed
	// merge in presentation order, so it never depends on cell scheduling.
	btbLabels := []string{"2levelBTB", "idealBTB"}
	makers := []branchMaker{twoLevelBTB, perfectBTB}
	g := p.newGrid("fig5.3")
	for _, name := range p.workloads() {
		f := feeds[name]
		for bi, mk := range makers {
			btbLabel := btbLabels[bi]
			g.cell(name, btbLabel, "base", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.Obs = p.track("fig5.3", name, btbLabel, "base")
				return pipeline.Run(fetch.NewTraceCacheSource(f.source(), mk(), fetch.DefaultTCConfig()), cfg)
			})
			g.cell(name, btbLabel, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.Network = core.MustNew(core.DefaultConfig())
				cfg.Obs = p.track("fig5.3", name, btbLabel, "vp")
				return pipeline.Run(fetch.NewTraceCacheSource(f.source(), mk(), fetch.DefaultTCConfig()), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	agg := p.noteAgg("tc_hit_rate",
		"mean trace-cache hit rate across runs: %.1f%%", 100, len(btbLabels))
	for _, name := range p.workloads() {
		var cells []float64
		var hits float64
		for _, btbLabel := range btbLabels {
			base := res.get(name, btbLabel, "base").(pipeline.Result)
			vp := res.get(name, btbLabel, "vp").(pipeline.Result)
			cells = append(cells, pipeline.Speedup(base, vp))
			hits += vp.Fetch.TCHitRate()
		}
		t.AddRow(name, cells...)
		agg.contrib(name, hits)
	}
	t.AppendAverage()
	agg.render(t)
	return t, nil
}

// Sec4 reports the prediction-network behaviour the paper's Section 4
// motivates: how often trace-cache fetch groups contain duplicate PCs, how
// many requests the router merges or denies, and the cost of denials.
func Sec4(p Params) (*Table, error) {
	feeds, err := p.feeds()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Section 4 — banked prediction network behaviour (trace-cache machine, 16 banks)",
		RowHeader: "benchmark",
		Columns:   []string{"requests/kinst", "merged %", "denied %", "hint-dropped %", "speedup %"},
	}
	// The vp cell owns its network, so the router statistics travel with
	// the cell result instead of leaking through shared state.
	type vpOut struct {
		res   pipeline.Result
		stats core.Stats
	}
	g := p.newGrid("sec4")
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "base", func() (any, error) {
			cfg := pipeline.DefaultConfig()
			cfg.Obs = p.track("sec4", name, "base")
			return pipeline.Run(fetch.NewTraceCacheSource(f.source(), perfectBTB(), fetch.DefaultTCConfig()), cfg)
		})
		g.cell(name, "", "vp", func() (any, error) {
			net := core.MustNew(core.DefaultConfig())
			cfg := pipeline.DefaultConfig()
			cfg.Network = net
			cfg.Obs = p.track("sec4", name, "vp")
			res, err := pipeline.Run(fetch.NewTraceCacheSource(f.source(), perfectBTB(), fetch.DefaultTCConfig()), cfg)
			if err != nil {
				return nil, err
			}
			return vpOut{res: res, stats: net.Stats()}, nil
		})
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		f := feeds[name]
		base := res.get(name, "", "base").(pipeline.Result)
		vp := res.get(name, "", "vp").(vpOut)
		s := vp.stats
		req := float64(s.Requests)
		t.AddRow(name,
			1000*req/float64(f.Len()),
			100*float64(s.MergedServed+s.MergedDenied)/req,
			100*float64(s.Denied+s.MergedDenied)/req,
			100*float64(s.HintDropped)/req,
			pipeline.Speedup(base, vp.res))
	}
	t.AppendAverage()
	return t, nil
}

package experiment

import (
	"fmt"

	"valuepred/internal/core"
	"valuepred/internal/fetch"
	"valuepred/internal/pipeline"
	"valuepred/internal/predictor"
)

func init() {
	register("ablation.banks", "Ablation — prediction-table bank count (Section 4 network)", AblationBanks)
	register("ablation.hybrid", "Ablation — stride vs hybrid+hints predictor in the network (Section 4.2)", AblationHybrid)
	register("ablation.window", "Ablation — scheduling-window vs ROB window semantics", AblationWindow)
	register("ablation.vpenalty", "Ablation — value-misprediction reschedule penalty", AblationVPenalty)
}

// AblationBankCounts is the bank sweep of ablation.banks.
var AblationBankCounts = []int{1, 2, 4, 8, 16}

// AblationBanks sweeps the number of banks in the prediction network on the
// trace-cache machine: fewer banks mean more router denials and a smaller
// value-prediction speedup. One base cell plus one vp cell per bank count
// per workload; speedups are computed at the keyed merge against the
// workload's shared base run.
func AblationBanks(p Params) (*Table, error) {
	feeds, err := p.feeds()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Ablation — speedup vs prediction-table bank count (trace cache, ideal BTB)",
		RowHeader: "benchmark",
		Unit:      "%",
	}
	for _, b := range AblationBankCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("%d banks", b))
	}
	g := p.newGrid("ablation.banks")
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "base", func() (any, error) {
			return pipeline.Run(fetch.NewTraceCacheSource(f.source(), perfectBTB(), fetch.DefaultTCConfig()), pipeline.DefaultConfig())
		})
		for _, banks := range AblationBankCounts {
			col := fmt.Sprintf("%d banks", banks)
			g.cell(name, col, "vp", func() (any, error) {
				netCfg := core.DefaultConfig()
				netCfg.Banks = banks
				cfg := pipeline.DefaultConfig()
				cfg.Network = core.MustNew(netCfg)
				return pipeline.Run(fetch.NewTraceCacheSource(f.source(), perfectBTB(), fetch.DefaultTCConfig()), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		base := res.get(name, "", "base").(pipeline.Result)
		var cells []float64
		for _, banks := range AblationBankCounts {
			vp := res.get(name, fmt.Sprintf("%d banks", banks), "vp").(pipeline.Result)
			cells = append(cells, pipeline.Speedup(base, vp))
		}
		t.AddRow(name, cells...)
	}
	t.AppendAverage()
	return t, nil
}

// AblationHybrid compares three predictor organisations inside the network
// on the trace-cache machine: the classified stride table, a hybrid
// (last-value + small stride table) without hints, and the hybrid steered
// by profiling-derived opcode hints, which also unloads the router
// (Section 4.2). Each variant cell owns its network and profiles its own
// hints (profiling is deterministic, so recomputing inside the cell keeps
// cells self-contained without perturbing results).
func AblationHybrid(p Params) (*Table, error) {
	feeds, err := p.feeds()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     "Ablation — predictor organisation in the network (trace cache, ideal BTB, 4 banks)",
		RowHeader: "benchmark",
		Columns:   []string{"stride", "hybrid", "hybrid+hints", "denied% stride", "denied% hints"},
	}
	type vpOut struct {
		res   pipeline.Result
		stats core.Stats
	}
	variants := []string{"stride", "hybrid", "hybrid+hints"}
	g := p.newGrid("ablation.hybrid")
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "base", func() (any, error) {
			return pipeline.Run(fetch.NewTraceCacheSource(f.source(), perfectBTB(), fetch.DefaultTCConfig()), pipeline.DefaultConfig())
		})
		for _, v := range variants {
			g.cell(name, "", v, func() (any, error) {
				var pred predictor.Predictor
				var hints predictor.Hints
				switch v {
				case "stride":
					pred = predictor.NewClassifiedStride()
				case "hybrid":
					pred = predictor.NewHybrid(1024, nil)
				case "hybrid+hints":
					// Profile the first quarter of the trace for hints.
					hints = predictor.ProfileSource(f.prefix(f.Len()/4), 0.6)
					pred = predictor.NewHybrid(1024, hints)
				}
				netCfg := core.Config{Banks: 4, PortsPerBank: 1, Predictor: pred, Hints: hints}
				net, err := core.NewNetwork(netCfg)
				if err != nil {
					return nil, err
				}
				cfg := pipeline.DefaultConfig()
				cfg.Network = net
				res, err := pipeline.Run(fetch.NewTraceCacheSource(f.source(), perfectBTB(), fetch.DefaultTCConfig()), cfg)
				if err != nil {
					return nil, err
				}
				return vpOut{res: res, stats: net.Stats()}, nil
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		base := res.get(name, "", "base").(pipeline.Result)
		var cells []float64
		var denied []float64
		for _, v := range variants {
			out := res.get(name, "", v).(vpOut)
			cells = append(cells, pipeline.Speedup(base, out.res))
			s := out.stats
			denied = append(denied, 100*float64(s.Denied+s.MergedDenied)/float64(max64(s.Requests, 1)))
		}
		t.AddRow(name, cells[0], cells[1], cells[2], denied[0], denied[2])
	}
	t.AppendAverage()
	return t, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// AblationWindow compares scheduling-window semantics (slots free at
// execute; the paper's model) against ROB semantics (slots held until
// in-order commit) on the unlimited-fetch machine.
func AblationWindow(p Params) (*Table, error) {
	t := &Table{
		Title:     "Ablation — window semantics (sequential fetch, unlimited taken branches, ideal BTB)",
		RowHeader: "benchmark",
		Columns:   []string{"sched-window speedup", "ROB speedup", "sched base IPC", "ROB base IPC"},
	}
	feeds, outs, err := p.record("ablation.window", classifiedStride)
	if err != nil {
		return nil, err
	}
	cols := []string{"sched", "rob"}
	g := p.newGrid("ablation.window")
	for _, name := range p.workloads() {
		f := feeds[name]
		for hi, hold := range []bool{false, true} {
			col := cols[hi]
			g.cell(name, col, "base", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.HoldUntilCommit = hold
				return pipeline.Run(fetch.NewSequentialSource(f.source(), perfectBTB(), -1), cfg)
			})
			g.cell(name, col, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.HoldUntilCommit = hold
				cfg.Outcomes = outs.outcomes(name, classifiedStride)
				return pipeline.Run(fetch.NewSequentialSource(f.source(), perfectBTB(), -1), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		var speedups, ipcs []float64
		for _, col := range cols {
			base := res.get(name, col, "base").(pipeline.Result)
			vp := res.get(name, col, "vp").(pipeline.Result)
			speedups = append(speedups, pipeline.Speedup(base, vp))
			ipcs = append(ipcs, base.IPC())
		}
		t.AddRow(name, speedups[0], speedups[1], ipcs[0], ipcs[1])
	}
	t.AppendAverage()
	return t, nil
}

// AblationVPenalty sweeps the extra reschedule penalty charged to consumers
// of mispredicted values, quantifying how sensitive the paper's results are
// to the recovery model.
func AblationVPenalty(p Params) (*Table, error) {
	penalties := []int{0, 1, 2, 4}
	t := &Table{
		Title:     "Ablation — value-misprediction reschedule penalty (sequential fetch, n=4, ideal BTB)",
		RowHeader: "benchmark",
		Unit:      "%",
	}
	for _, pen := range penalties {
		t.Columns = append(t.Columns, fmt.Sprintf("+%d cycles", pen))
	}
	feeds, outs, err := p.record("ablation.vpenalty", classifiedStride)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("ablation.vpenalty")
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "base", func() (any, error) {
			return pipeline.Run(fetch.NewSequentialSource(f.source(), perfectBTB(), 4), pipeline.DefaultConfig())
		})
		for _, pen := range penalties {
			col := fmt.Sprintf("+%d cycles", pen)
			g.cell(name, col, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.ValuePenalty = pen
				cfg.Outcomes = outs.outcomes(name, classifiedStride)
				return pipeline.Run(fetch.NewSequentialSource(f.source(), perfectBTB(), 4), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		base := res.get(name, "", "base").(pipeline.Result)
		var cells []float64
		for _, pen := range penalties {
			vp := res.get(name, fmt.Sprintf("+%d cycles", pen), "vp").(pipeline.Result)
			cells = append(cells, pipeline.Speedup(base, vp))
		}
		t.AddRow(name, cells...)
	}
	t.AppendAverage()
	return t, nil
}

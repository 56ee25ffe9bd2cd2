package experiment

import (
	"fmt"

	"valuepred/internal/fetch"
	"valuepred/internal/pipeline"
	"valuepred/internal/predictor"
)

func init() {
	register("ablation.vptable",
		"Ablation — finite prediction-table sizes vs the infinite-table idealisation",
		AblationVPTable)
	register("diag.memdeps",
		"Diagnostic — effect of store-to-load dependencies on the baseline and on VP",
		DiagMemDeps)
}

// AblationVPTableSizes is the size sweep (0 = infinite).
var AblationVPTableSizes = []int{16, 64, 256, 0}

func vpTableLabel(size int) string {
	if size == 0 {
		return "infinite"
	}
	return fmt.Sprintf("%d entries", size)
}

// AblationVPTable replaces Section 3's infinite stride table with
// direct-mapped tagged tables of realistic sizes on the Section 5 machine
// (n=4, ideal BTB): the knee shows how much state the paper's assumption
// hides.
func AblationVPTable(p Params) (*Table, error) {
	t := &Table{
		Title:     "Ablation — value-prediction table size (sequential fetch, n=4, ideal BTB)",
		RowHeader: "benchmark",
		Unit:      "%",
	}
	for _, size := range AblationVPTableSizes {
		t.Columns = append(t.Columns, vpTableLabel(size))
	}
	var specs []vpSpec
	for _, size := range AblationVPTableSizes {
		specs = append(specs, vpSpec{vpTableLabel(size), func(feed) predictor.Predictor {
			var inner predictor.Predictor
			if size == 0 {
				inner = predictor.NewStride()
			} else {
				inner = predictor.NewStrideTable(size)
			}
			return &predictor.Classified{Inner: inner, Class: predictor.NewClassifier(2, 2)}
		}})
	}
	feeds, outs, err := p.record("ablation.vptable", specs...)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("ablation.vptable")
	for _, name := range p.workloads() {
		f := feeds[name]
		g.cell(name, "", "base", func() (any, error) {
			return pipeline.Run(fetch.NewSequentialSource(f.source(), perfectBTB(), 4), pipeline.DefaultConfig())
		})
		for _, s := range specs {
			g.cell(name, s.name, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.Outcomes = outs.outcomes(name, s)
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
		for _, size := range AblationVPTableSizes {
			vp := res.get(name, vpTableLabel(size), "vp").(pipeline.Result)
			cells = append(cells, pipeline.Speedup(base, vp))
		}
		t.AddRow(name, cells...)
	}
	t.AppendAverage()
	return t, nil
}

// DiagMemDeps quantifies how much of each workload's serialisation flows
// through memory: baseline IPC and VP speedup with and without
// store-to-load dependencies (n=4, ideal BTB). Without memory dependencies
// the machine is optimistic (perfect memory renaming).
func DiagMemDeps(p Params) (*Table, error) {
	t := &Table{
		Title:     "Diagnostic — store-to-load dependencies (sequential fetch, n=4, ideal BTB)",
		RowHeader: "benchmark",
		Columns:   []string{"base IPC mem", "base IPC nomem", "speedup mem", "speedup nomem"},
	}
	feeds, outs, err := p.record("diag.memdeps", classifiedStride)
	if err != nil {
		return nil, err
	}
	cols := []string{"mem", "nomem"}
	g := p.newGrid("diag.memdeps")
	for _, name := range p.workloads() {
		f := feeds[name]
		for mi, mem := range []bool{true, false} {
			col := cols[mi]
			for vi, variant := range []string{"base", "vp"} {
				vp := vi == 1
				g.cell(name, col, variant, func() (any, error) {
					cfg := pipeline.DefaultConfig()
					cfg.IncludeMemoryDeps = mem
					if vp {
						cfg.Outcomes = outs.outcomes(name, classifiedStride)
					}
					return pipeline.Run(fetch.NewSequentialSource(f.source(), perfectBTB(), 4), cfg)
				})
			}
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		baseMem := res.get(name, "mem", "base").(pipeline.Result)
		baseNo := res.get(name, "nomem", "base").(pipeline.Result)
		vpMem := res.get(name, "mem", "vp").(pipeline.Result)
		vpNo := res.get(name, "nomem", "vp").(pipeline.Result)
		t.AddRow(name,
			baseMem.IPC(), baseNo.IPC(),
			pipeline.Speedup(baseMem, vpMem), pipeline.Speedup(baseNo, vpNo))
	}
	t.AppendAverage()
	return t, nil
}

func init() {
	register("ablation.partial",
		"Ablation — trace-cache partial matching (reference [6])",
		AblationPartial)
}

// AblationPartial measures the partial-matching improvement of the paper's
// reference [6] on the trace-cache machine with the 2-level BTB: the hit
// rate rises because predictor/line disagreements deliver the matching
// prefix instead of missing.
func AblationPartial(p Params) (*Table, error) {
	t := &Table{
		Title:     "Ablation — trace-cache partial matching (2-level BTB)",
		RowHeader: "benchmark",
		Columns:   []string{"hit% off", "hit% on", "partial share %", "speedup off", "speedup on"},
	}
	feeds, outs, err := p.record("ablation.partial", classifiedStride)
	if err != nil {
		return nil, err
	}
	cols := []string{"off", "on"}
	g := p.newGrid("ablation.partial")
	for _, name := range p.workloads() {
		f := feeds[name]
		for ci, partial := range []bool{false, true} {
			col := cols[ci]
			tcCfg := fetch.DefaultTCConfig()
			tcCfg.PartialMatching = partial
			mk := func() fetch.Engine {
				return fetch.NewTraceCacheSource(f.source(), twoLevelBTB(), tcCfg)
			}
			g.cell(name, col, "base", func() (any, error) {
				return pipeline.Run(mk(), pipeline.DefaultConfig())
			})
			g.cell(name, col, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.Outcomes = outs.outcomes(name, classifiedStride)
				return pipeline.Run(mk(), cfg)
			})
		}
	}
	res, err := g.run()
	if err != nil {
		return nil, err
	}
	for _, name := range p.workloads() {
		type outcome struct {
			hit, partialShare, speedup float64
		}
		var outcomes []outcome
		for _, col := range cols {
			base := res.get(name, col, "base").(pipeline.Result)
			vp := res.get(name, col, "vp").(pipeline.Result)
			st := vp.Fetch
			var share float64
			if st.TCHits > 0 {
				share = 100 * float64(st.TCPartialHits) / float64(st.TCHits)
			}
			outcomes = append(outcomes, outcome{
				hit:          100 * st.TCHitRate(),
				partialShare: share,
				speedup:      pipeline.Speedup(base, vp),
			})
		}
		off, on := outcomes[0], outcomes[1]
		t.AddRow(name, off.hit, on.hit, on.partialShare, off.speedup, on.speedup)
	}
	t.AppendAverage()
	return t, nil
}

func init() {
	register("ablation.latency",
		"Ablation — load latency vs value-prediction speedup (VP hides load latency)",
		AblationLatency)
}

// AblationLatencyLoads is the load-latency sweep of ablation.latency.
var AblationLatencyLoads = []int{1, 2, 4}

// AblationLatency extends the paper's unit-latency model with multi-cycle
// loads. Correctly predicted load values decouple consumers from the
// memory pipeline, so the *absolute* cycle savings grow with latency; the
// *relative* speedup is workload-dependent (it shrinks where the
// unpredictable dependence chains lengthen faster than prediction can
// compensate), which is why the table reports both speedup and base IPC.
func AblationLatency(p Params) (*Table, error) {
	t := &Table{
		Title:     "Ablation — load latency (sequential fetch, n=4, ideal BTB)",
		RowHeader: "benchmark",
	}
	for _, lat := range AblationLatencyLoads {
		t.Columns = append(t.Columns, fmt.Sprintf("lat=%d speedup", lat))
	}
	for _, lat := range AblationLatencyLoads {
		t.Columns = append(t.Columns, fmt.Sprintf("lat=%d base IPC", lat))
	}
	feeds, outs, err := p.record("ablation.latency", classifiedStride)
	if err != nil {
		return nil, err
	}
	g := p.newGrid("ablation.latency")
	for _, name := range p.workloads() {
		f := feeds[name]
		for _, lat := range AblationLatencyLoads {
			col := fmt.Sprintf("lat=%d", lat)
			g.cell(name, col, "base", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.LoadLatency = lat
				return pipeline.Run(fetch.NewSequentialSource(f.source(), perfectBTB(), 4), cfg)
			})
			g.cell(name, col, "vp", func() (any, error) {
				cfg := pipeline.DefaultConfig()
				cfg.LoadLatency = lat
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
		var speedups, ipcs []float64
		for _, lat := range AblationLatencyLoads {
			col := fmt.Sprintf("lat=%d", lat)
			base := res.get(name, col, "base").(pipeline.Result)
			vp := res.get(name, col, "vp").(pipeline.Result)
			speedups = append(speedups, pipeline.Speedup(base, vp))
			ipcs = append(ipcs, base.IPC())
		}
		t.AddRow(name, append(speedups, ipcs...)...)
	}
	t.AppendAverage()
	return t, nil
}

package experiment

import "fmt"

// Fig5Taken are the taken-branch-per-cycle limits swept by Figures 5.1 and
// 5.2 (-1 is the paper's "unlimited").
var Fig5Taken = []int{1, 2, 3, 4, -1}

func takenLabel(n int) string {
	if n < 0 {
		return "unlimited"
	}
	return fmt.Sprintf("n=%d", n)
}

// The Section 4 and 5 figures: the realistic machine behind sequential
// fetch under both BTBs, behind the trace cache with the banked prediction
// network, and the network's router statistics.
func init() {
	var taken []string
	for _, n := range Fig5Taken {
		taken = append(taken, takenLabel(n))
	}
	// sequential sweeps Fig5Taken behind the BTB named btb; the accuracy
	// note sums each workload's branch accuracy over the sweep.
	sequential := func(id, desc, title, btb string) decl {
		var ms []machine
		for _, n := range Fig5Taken {
			ms = append(ms, seq(n, btb))
		}
		return decl{
			id: id, desc: desc, title: title,
			columns: taken,
			unit:    "%",
			preds:   []vpSpec{classifiedStride},
			cells:   pairs(taken, ms, strideVP),
			row:     func(r row) []float64 { return r.speedups(taken, false) },
			agg: NoteAgg{Key: "branch_accuracy", Format: "mean branch prediction accuracy across runs: %.1f%%",
				Factor: 100, Weight: len(Fig5Taken)},
			contrib: func(r row) float64 {
				var acc float64
				for _, col := range taken {
					acc += r.pipe(col, "vp").Fetch.BranchAccuracy()
				}
				return acc
			},
		}
	}
	banked16 := func(m machine) machine { return m.banked(16, "") }
	tcCols := []string{"2levelBTB", "idealBTB"}
	declare(
		// Figure 5.1: the realistic machine with a perfect branch predictor.
		sequential("fig5.1", "Figure 5.1 — VP speedup vs taken branches/cycle, ideal BTB",
			"Figure 5.1 — value-prediction speedup vs max taken branches/cycle (ideal BTB)", "ideal"),
		// Figure 5.2: the same sweep with the 2-level PAp BTB.
		sequential("fig5.2", "Figure 5.2 — VP speedup vs taken branches/cycle, 2-level BTB",
			"Figure 5.2 — value-prediction speedup vs max taken branches/cycle (2-level BTB)", "btb-2k"),
		// Figure 5.3: the trace-cache machine, with the banked prediction
		// network delivering values, under both branch predictors.
		decl{
			id:      "fig5.3",
			desc:    "Figure 5.3 — VP speedup with a trace cache",
			title:   "Figure 5.3 — value-prediction speedup with a trace cache",
			columns: []string{"TC+2levelBTB", "TC+idealBTB"},
			unit:    "%",
			cells:   pairs(tcCols, []machine{tc("btb-2k"), tc("ideal")}, banked16),
			row:     func(r row) []float64 { return r.speedups(tcCols, false) },
			agg: NoteAgg{Key: "tc_hit_rate", Format: "mean trace-cache hit rate across runs: %.1f%%",
				Factor: 100, Weight: len(tcCols)},
			contrib: func(r row) float64 {
				var hits float64
				for _, col := range tcCols {
					hits += r.pipe(col, "vp").Fetch.TCHitRate()
				}
				return hits
			},
		},
		// Section 4: how often trace-cache fetch groups contain duplicate
		// PCs, how many requests the router merges or denies, and the cost
		// of denials.
		decl{
			id:      "sec4",
			desc:    "Section 4 — prediction-network router/distributor statistics",
			title:   "Section 4 — banked prediction network behaviour (trace-cache machine, 16 banks)",
			columns: []string{"requests/kinst", "merged %", "denied %", "hint-dropped %", "speedup %"},
			cells:   pairs([]string{""}, []machine{tc("ideal")}, banked16),
			row: func(r row) []float64 {
				s := r.pipe("", "vp").net
				req := float64(s.Requests)
				return []float64{
					1000 * req / float64(r.n),
					100 * float64(s.MergedServed+s.MergedDenied) / req,
					100 * float64(s.Denied+s.MergedDenied) / req,
					100 * float64(s.HintDropped) / req,
					r.speedup("", "", "vp"),
				}
			},
		},
	)
}

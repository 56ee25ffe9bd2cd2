package experiment

import (
	"fmt"

	"valuepred/internal/predictor"
)

// The ablations and diagnostics: the design choices DESIGN.md calls out,
// each swept on the machine it matters to, and direct measurements of the
// paper's mechanisms.
func init() {
	seq4 := seq(4, "ideal")
	ideal16 := idealAt(16)

	// ablation.banks: fewer banks mean more router denials.
	var bankCols []string
	var bankMs []machine
	for _, b := range []int{1, 2, 4, 8, 16} {
		bankCols = append(bankCols, fmt.Sprintf("%d banks", b))
		bankMs = append(bankMs, tc("ideal").banked(b, ""))
	}

	// ablation.vpenalty: the extra reschedule penalty of a misprediction.
	var penCols []string
	var penMs []machine
	for _, pen := range []int{0, 1, 2, 4} {
		m := strideVP(seq4)
		m.penalty = pen
		penCols = append(penCols, fmt.Sprintf("+%d cycles", pen))
		penMs = append(penMs, m)
	}

	// ablation.predictor: value-predictor organisations.
	orgs := []vpSpec{
		{"last-value", func(feed) predictor.Predictor { return predictor.NewLastValue() }},
		{"stride", func(feed) predictor.Predictor { return predictor.NewStride() }},
		classifiedStride,
		{"fcm2+2bc", func(feed) predictor.Predictor { return predictor.NewClassifiedFCM(2) }},
		{"hybrid+hints", func(f feed) predictor.Predictor { return predictor.NewHybrid(1024, profile(f)) }},
	}

	// ablation.vptable: direct-mapped tagged stride tables of realistic
	// sizes in place of Section 3's infinite one (size 0).
	var tables []vpSpec
	for _, size := range []int{16, 64, 256, 0} {
		name := fmt.Sprintf("%d entries", size)
		if size == 0 {
			name = "infinite"
		}
		tables = append(tables, vpSpec{name, func(feed) predictor.Predictor {
			var inner predictor.Predictor
			if size == 0 {
				inner = predictor.NewStride()
			} else {
				inner = predictor.NewStrideTable(size)
			}
			return &predictor.Classified{Inner: inner, Class: predictor.NewClassifier()}
		}})
	}

	// ablation.btb: BTB configurations at 4 taken branches per cycle.
	btbs := []string{"btb-512", "btb-2k", "btb-8k/h6", "gshare", "ideal"}
	var btbCols []string
	var btbMs []machine
	for _, b := range btbs {
		btbCols = append(btbCols, b+" speedup")
		btbMs = append(btbMs, seq(4, b))
	}

	// ablation.latency: multi-cycle loads.
	var latCols, latSpeedups, latIPCs []string
	var latMs []machine
	for _, lat := range []int{1, 2, 4} {
		m := seq4
		m.loadLat = lat
		latCols = append(latCols, fmt.Sprintf("lat=%d", lat))
		latSpeedups = append(latSpeedups, fmt.Sprintf("lat=%d speedup", lat))
		latIPCs = append(latIPCs, fmt.Sprintf("lat=%d base IPC", lat))
		latMs = append(latMs, m)
	}

	// diag.useless: the fetch-width sweep.
	uselessWidths := []int{4, 8, 16, 40}
	var uselessCells []cell
	for i, col := range widthCols(uselessWidths) {
		uselessCells = append(uselessCells, cell{col, "vp", strideVP(idealAt(uselessWidths[i]))})
	}

	mechs := []string{"seq n=1", "collapsing", "seq n=4", "trace cache"}
	rob, nomem, partial := seq(-1, "ideal"), seq4, tc("btb-2k")
	rob.rob, nomem.nomem, partial.fetch = true, true, "tc+partial"

	declare(
		decl{
			id:      "ablation.banks",
			desc:    "Ablation — prediction-table bank count (Section 4 network)",
			title:   "Ablation — speedup vs prediction-table bank count (trace cache, ideal BTB)",
			columns: bankCols,
			unit:    "%",
			cells:   overBase(tc("ideal"), bankCols, bankMs),
			row:     func(r row) []float64 { return r.speedups(bankCols, true) },
		},
		// The hybrid (last-value + small stride table) steered by
		// profiling-derived opcode hints also unloads the router (Section 4.2).
		decl{
			id:      "ablation.hybrid",
			desc:    "Ablation — stride vs hybrid+hints predictor in the network (Section 4.2)",
			title:   "Ablation — predictor organisation in the network (trace cache, ideal BTB, 4 banks)",
			columns: []string{"stride", "hybrid", "hybrid+hints", "denied% stride", "denied% hints"},
			cells: []cell{
				{"", "base", tc("ideal")},
				{"", "stride", tc("ideal").banked(4, "")},
				{"", "hybrid", tc("ideal").banked(4, "hybrid")},
				{"", "hybrid+hints", tc("ideal").banked(4, "hybrid+hints")},
			},
			row: func(r row) []float64 {
				denied := func(v string) float64 {
					s := r.pipe("", v).net
					return 100 * float64(s.Denied+s.MergedDenied) / float64(max(s.Requests, 1))
				}
				return []float64{r.speedup("", "", "stride"), r.speedup("", "", "hybrid"), r.speedup("", "", "hybrid+hints"),
					denied("stride"), denied("hybrid+hints")}
			},
		},
		// Window slots free at execute (the paper's model) or at commit.
		decl{
			id:      "ablation.window",
			desc:    "Ablation — scheduling-window vs ROB window semantics",
			title:   "Ablation — window semantics (sequential fetch, unlimited taken branches, ideal BTB)",
			columns: []string{"sched-window speedup", "ROB speedup", "sched base IPC", "ROB base IPC"},
			preds:   []vpSpec{classifiedStride},
			cells:   pairs([]string{"sched", "rob"}, []machine{seq(-1, "ideal"), rob}, strideVP),
			row: func(r row) []float64 {
				return append(r.speedups([]string{"sched", "rob"}, false),
					r.pipe("sched", "base").IPC(), r.pipe("rob", "base").IPC())
			},
		},
		decl{
			id:      "ablation.vpenalty",
			desc:    "Ablation — value-misprediction reschedule penalty",
			title:   "Ablation — value-misprediction reschedule penalty (sequential fetch, n=4, ideal BTB)",
			columns: penCols,
			unit:    "%",
			preds:   []vpSpec{classifiedStride},
			cells:   overBase(seq4, penCols, penMs),
			row:     func(r row) []float64 { return r.speedups(penCols, true) },
		},
		decl{
			id:      "ablation.predictor",
			desc:    "Ablation — value-predictor organisations on the ideal machine (width 16)",
			title:   "Ablation — predictor organisations (ideal machine, fetch width 16)",
			columns: specNames(orgs),
			unit:    "%",
			preds:   orgs,
			cells:   overBase(ideal16, specNames(orgs), replayEach(ideal16, orgs)),
			row:     func(r row) []float64 { return r.speedups(specNames(orgs), true) },
		},
		// Section 5: "any small improvement in the BTB accuracy can
		// considerably affect the performance gain of value prediction".
		decl{
			id:      "ablation.btb",
			desc:    "Ablation — BTB quality vs value-prediction speedup (Section 5 claim)",
			title:   "Ablation — BTB quality vs value-prediction speedup (sequential fetch, n=4)",
			columns: append(btbCols, "acc 512", "acc 2k", "acc 8k", "acc gshare"),
			preds:   []vpSpec{classifiedStride},
			cells:   pairs(btbs, btbMs, strideVP),
			row: func(r row) []float64 {
				cells := r.speedups(btbs, false)
				for _, b := range btbs[:4] {
					cells = append(cells, 100*r.pipe(b, "vp").Fetch.BranchAccuracy())
				}
				return cells
			},
		},
		// The ideal BTB isolates the fetch mechanism.
		decl{
			id:      "ablation.fetchmech",
			desc:    "Ablation — high-bandwidth fetch mechanisms (Section 2.2 survey)",
			title:   "Ablation — fetch mechanism vs value-prediction speedup (ideal BTB)",
			columns: mechs,
			unit:    "%",
			preds:   []vpSpec{classifiedStride},
			cells:   pairs(mechs, []machine{seq(1, "ideal"), {kind: "pipeline", fetch: "cb", btb: "ideal"}, seq4, tc("ideal")}, strideVP),
			row:     func(r row) []float64 { return r.speedups(mechs, false) },
			notes:   []string{"speedups are relative to the same fetch mechanism without value prediction"},
		},
		// Coverage: correct confident predictions per value producer.
		decl{
			id:      "ablation.lipasti",
			desc:    "Ablation — load-value-only prediction [13] vs all-instruction prediction [7]",
			title:   "Ablation — loads-only [13] vs all-instruction [7] value prediction (ideal machine, width 16)",
			columns: []string{"loads-only speedup", "all-inst speedup", "loads-only coverage %", "all-inst coverage %"},
			preds: []vpSpec{
				{"loads-only", func(f feed) predictor.Predictor {
					return predictor.NewLoadsOnlyFromSource(predictor.NewClassifiedStride(), f.source())
				}},
				{"all-inst", classifiedStride.mk},
			},
			cells: schemes(ideal16, "loads-only", "all-inst"),
			row: func(r row) []float64 {
				return []float64{r.speedup("", "", "loads-only"), r.speedup("", "", "all-inst"),
					100 * r.acc("loads-only").ConfidentCoverage(), 100 * r.acc("all-inst").ConfidentCoverage()}
			},
			notes: []string{"loads-only reproduces the [13]-style result: less coverage, much less speedup"},
		},
		// The two-delta rule is the one of the paper's technical reports.
		decl{
			id:      "ablation.twodelta",
			desc:    "Ablation — plain stride vs two-delta stride update policy",
			title:   "Ablation — stride vs two-delta stride (ideal machine, width 16)",
			columns: []string{"stride speedup", "2-delta speedup", "stride hit %", "2-delta hit %"},
			preds: []vpSpec{
				{"stride", classifiedStride.mk},
				{"2-delta", func(feed) predictor.Predictor { return predictor.NewClassifiedTwoDelta() }},
			},
			cells: schemes(ideal16, "stride", "2-delta"),
			row: func(r row) []float64 {
				return []float64{r.speedup("", "", "stride"), r.speedup("", "", "2-delta"),
					100 * r.acc("stride").HitRate(), 100 * r.acc("2-delta").HitRate()}
			},
		},
		// The knee shows how much state the infinite table hides.
		decl{
			id:      "ablation.vptable",
			desc:    "Ablation — finite prediction-table sizes vs the infinite-table idealisation",
			title:   "Ablation — value-prediction table size (sequential fetch, n=4, ideal BTB)",
			columns: specNames(tables),
			unit:    "%",
			preds:   tables,
			cells:   overBase(seq4, specNames(tables), replayEach(seq4, tables)),
			row:     func(r row) []float64 { return r.speedups(specNames(tables), true) },
		},
		// Partial matching delivers the matching prefix of a line the
		// predictor disagrees with.
		decl{
			id:      "ablation.partial",
			desc:    "Ablation — trace-cache partial matching (reference [6])",
			title:   "Ablation — trace-cache partial matching (2-level BTB)",
			columns: []string{"hit% off", "hit% on", "partial share %", "speedup off", "speedup on"},
			preds:   []vpSpec{classifiedStride},
			cells:   pairs([]string{"off", "on"}, []machine{tc("btb-2k"), partial}, strideVP),
			row: func(r row) []float64 {
				off, on := r.pipe("off", "vp").Fetch, r.pipe("on", "vp").Fetch
				var share float64
				if on.TCHits > 0 {
					share = 100 * float64(on.TCPartialHits) / float64(on.TCHits)
				}
				return []float64{100 * off.TCHitRate(), 100 * on.TCHitRate(), share,
					r.speedup("off", "off", "vp"), r.speedup("on", "on", "vp")}
			},
		},
		// VP hides load latency, so the absolute savings grow with it while
		// the relative speedup is workload-dependent: both are reported.
		decl{
			id:      "ablation.latency",
			desc:    "Ablation — load latency vs value-prediction speedup (VP hides load latency)",
			title:   "Ablation — load latency (sequential fetch, n=4, ideal BTB)",
			columns: append(latSpeedups, latIPCs...),
			preds:   []vpSpec{classifiedStride},
			cells:   pairs(latCols, latMs, strideVP),
			row: func(r row) []float64 {
				cells := r.speedups(latCols, false)
				for _, col := range latCols {
					cells = append(cells, r.pipe(col, "base").IPC())
				}
				return cells
			},
		},
		// Section 3's argument, quantified: the producer of a useless
		// prediction had executed by the time its consumers issued.
		decl{
			id:      "diag.useless",
			desc:    "Diagnostic — fraction of correct value predictions that are useless, by fetch width",
			title:   "Diagnostic — useless fraction of correct predictions vs fetch width (ideal machine)",
			columns: widthCols(uselessWidths),
			unit:    "%",
			preds:   []vpSpec{classifiedStride},
			cells:   uselessCells,
			row: func(r row) []float64 {
				var cells []float64
				for _, c := range uselessCells {
					res := r.ideal(c.col, "vp")
					if res.Correct == 0 {
						cells = append(cells, 0)
						continue
					}
					cells = append(cells, 100*float64(res.Useless())/float64(res.Correct))
				}
				return cells
			},
			notes: []string{"a useless prediction is correct but its consumers' operands were ready anyway"},
		},
		// Where the Section 5 machine's cycles go, with and without VP.
		decl{
			id:    "diag.stalls",
			desc:  "Diagnostic — front-end stall breakdown on the Section 5 machine (2-level BTB, n=4)",
			title: "Diagnostic — stall breakdown (sequential fetch, n=4, 2-level BTB)",
			columns: []string{"base IPC", "vp IPC", "branch-stall % base", "branch-stall % vp",
				"winfull % base", "winfull % vp", "occupancy base", "occupancy vp"},
			preds: []vpSpec{classifiedStride},
			cells: pairs([]string{""}, []machine{seq(4, "btb-2k")}, strideVP),
			row: func(r row) []float64 {
				base, vp := r.pipe("", "base"), r.pipe("", "vp")
				pct := func(n, d uint64) float64 { return 100 * float64(n) / float64(d) }
				return []float64{
					base.IPC(), vp.IPC(),
					pct(base.BranchStallCycles, base.Cycles), pct(vp.BranchStallCycles, vp.Cycles),
					pct(base.WindowFullCycles, base.Cycles), pct(vp.WindowFullCycles, vp.Cycles),
					base.AvgOccupancy(), vp.AvgOccupancy(),
				}
			},
		},
		// Backs ablation.lipasti: loads are a minority of value producers.
		decl{
			id:      "diag.classes",
			desc:    "Diagnostic — stride predictability by instruction class (loads / ALU / jumps)",
			title:   "Diagnostic — stride predictability by instruction class",
			columns: []string{"load share %", "alu share %", "jump share %", "load hit %", "alu hit %", "jump hit %"},
			cells:   []cell{{"", "eval", machine{kind: "classes"}}},
			row: func(r row) []float64 {
				ca := r.get("", "eval").(predictor.ClassAccuracy)
				total := ca.ALU.Eligible + ca.Load.Eligible + ca.Jump.Eligible
				share := func(n uint64) float64 {
					if total == 0 {
						return 0
					}
					return 100 * float64(n) / float64(total)
				}
				return []float64{
					share(ca.Load.Eligible), share(ca.ALU.Eligible), share(ca.Jump.Eligible),
					100 * ca.Load.HitRate(), 100 * ca.ALU.HitRate(), 100 * ca.Jump.HitRate(),
				}
			},
		},
		// Without store-to-load dependencies memory renaming is perfect.
		decl{
			id:      "diag.memdeps",
			desc:    "Diagnostic — effect of store-to-load dependencies on the baseline and on VP",
			title:   "Diagnostic — store-to-load dependencies (sequential fetch, n=4, ideal BTB)",
			columns: []string{"base IPC mem", "base IPC nomem", "speedup mem", "speedup nomem"},
			preds:   []vpSpec{classifiedStride},
			cells:   pairs([]string{"mem", "nomem"}, []machine{seq4, nomem}, strideVP),
			row: func(r row) []float64 {
				return append([]float64{r.pipe("mem", "base").IPC(), r.pipe("nomem", "base").IPC()},
					r.speedups([]string{"mem", "nomem"}, false)...)
			},
		},
	)
}

// schemes declares the ideal machine m's base cell and one cell per
// predictor scheme, each replaying its scheme's stream, all in column "".
func schemes(m machine, names ...string) []cell {
	cs := []cell{{"", "base", m}}
	for _, name := range names {
		cs = append(cs, cell{"", name, m.replaying(name)})
	}
	return cs
}

// replayEach returns m replaying each spec's stream in turn.
func replayEach(m machine, specs []vpSpec) []machine {
	var ms []machine
	for _, s := range specs {
		ms = append(ms, m.replaying(s.name))
	}
	return ms
}

// specNames returns the specs' names.
func specNames(specs []vpSpec) []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

package experiment

import (
	"fmt"
	"strings"

	"valuepred/internal/asm"
	"valuepred/internal/emu"
	"valuepred/internal/ideal"
	"valuepred/internal/isa"
	"valuepred/internal/stats"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// Table re-exports stats.Table as the result type of every experiment.
type Table = stats.Table

// table3.1 and table3.2 have no per-workload cells, so they are written
// by hand instead of declared (runner.go).
func init() {
	register("table3.1", "Table 3.1 — the SPEC95-integer benchmark analogues", table31)
	register("table3.2", "Table 3.2 — pipeline walk-through of the Figure 3.2 example", table32)
}

// table31 renders the benchmark descriptions (Table 3.1).
func table31(p Params) (*Table, error) {
	t := &Table{
		Title:     "Table 3.1 — SPEC95 integer benchmark analogues",
		RowHeader: "benchmark",
		Columns:   []string{"trace insts"},
	}
	for _, name := range p.workloads() {
		s, _ := workload.Get(name)
		t.AddRow(name, float64(p.TraceLen))
		t.AddNote("%s: %s", name, s.Description)
	}
	return t, nil
}

// table32 reproduces the paper's pipeline walk-through: the 8-instruction
// dataflow graph of Figure 3.2 executed on a 4-wide machine with a perfect
// value predictor. The note lines render the paper's cycle table; the cells
// give each instruction's execute cycle.
func table32(Params) (*Table, error) {
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

package experiment

// This file is the sharding side of the experiment layer: one replica runs
// its partition of the canonical cell space (plan.Shard over the
// presentation-ordered workload list — the table-row axis) and exports a
// ShardFile; MergeShardFiles recombines a complete set of shard files into
// tables byte-identical to an unsharded run.
//
// A shard stores only its workloads' rows (decl.rows), and the merge
// gathers every shard's rows back into presentation order and builds the
// table with the same decl.table an unsharded run calls, so the merge
// repeats the unsharded arithmetic in the unsharded order by construction.
// Multi-seed runs carry one row set per seed, and the merge averages the
// per-seed tables with stats.AverageTables, as RunSeeds does. The
// hand-written tables read no trace, so no shard runs them and the merge
// builds them itself.
//
// The file format has no wall-clock or host-identity fields: a shard file
// is a pure function of (experiments, params, shard), which the root
// byte-identity tests rely on.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"

	"valuepred/internal/plan"
	"valuepred/internal/stats"
)

// ShardFileVersion is the shard artifact schema version; DecodeShardFile
// and MergeShardFiles reject any other.
const ShardFileVersion = 2

// ShardFile is the artifact one shard run exports: the partition identity,
// the full run parameters (so a merge can validate that every shard ran
// the same request), and per-experiment rows.
type ShardFile struct {
	Version     int               `json:"version"`
	Shard       plan.Shard        `json:"shard"`
	Params      ShardParams       `json:"params"`
	Experiments []ExperimentShard `json:"experiments"`
}

// ShardParams is the canonicalized run request a shard executed. Workloads
// is the FULL selected list in presentation order, of which the shard owns
// its plan.Shard partition; every shard of one run must carry identical
// ShardParams.
type ShardParams struct {
	Seed      int64    `json:"seed"`
	TraceLen  int      `json:"trace_len"`
	Seeds     int      `json:"seeds"`
	Workloads []string `json:"workloads"`
	Stream    bool     `json:"stream,omitempty"`
}

// ExperimentShard is one experiment's result on one shard: one run per
// seed, in seed order.
type ExperimentShard struct {
	Experiment string     `json:"experiment"`
	Runs       []ShardRun `json:"runs"`
}

// ShardRun is one (experiment, seed) result on one shard: the rows of the
// workloads the shard owns, in presentation order. A hand-written table,
// or a shard that owns no workload, has none.
type ShardRun struct {
	Seed int64         `json:"seed"`
	Rows []WorkloadRow `json:"rows,omitempty"`
}

// MergedTable is one experiment's recombined table.
type MergedTable struct {
	Experiment string
	Table      *stats.Table
}

// RunShardFileCtx executes the shard's partition of each declared
// experiment id — one run of its rows per seed — and returns the artifact
// to merge. The partition is plan.Shard round-robin over the full selected
// workload list in presentation order; a shard that owns no workload
// records empty runs.
func RunShardFileCtx(ctx context.Context, ids []string, p Params, seeds []int64, sh plan.Shard) (*ShardFile, error) {
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		seeds = []int64{p.Seed}
	}
	full := append([]string(nil), p.workloads()...)
	own := sh.Partition(full)
	f := &ShardFile{
		Version: ShardFileVersion,
		Shard:   sh,
		Params: ShardParams{
			Seed:      p.Seed,
			TraceLen:  p.TraceLen,
			Seeds:     len(seeds),
			Workloads: full,
			Stream:    p.Stream,
		},
	}
	for _, id := range ids {
		e, err := lookup(id)
		if err != nil {
			return nil, err
		}
		es := ExperimentShard{Experiment: id}
		for _, seed := range seeds {
			run := ShardRun{Seed: seed}
			if e.d != nil && len(own) > 0 {
				ps := p
				ps.ctx, ps.Seed, ps.Workloads = ctx, seed, own
				err := ps.narrate(id, func() (err error) {
					run.Rows, err = e.d.rows(ps)
					return err
				})
				if err != nil {
					return nil, err
				}
			}
			es.Runs = append(es.Runs, run)
		}
		f.Experiments = append(f.Experiments, es)
	}
	return f, nil
}

// WriteJSON writes the shard file as indented JSON. The field order is
// fixed by the struct definitions and the structure contains no maps, so
// equal shard files marshal byte-identically (and float64 cells round-trip
// exactly through encoding/json).
func (f *ShardFile) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeShardFile reads one shard artifact, rejecting other versions.
func DecodeShardFile(r io.Reader) (*ShardFile, error) {
	var f ShardFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("experiment: decoding shard file: %w", err)
	}
	if err := f.checkVersion(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *ShardFile) checkVersion() error {
	if f.Version != ShardFileVersion {
		return fmt.Errorf("experiment: shard file version %d, want %d", f.Version, ShardFileVersion)
	}
	return nil
}

// MergeShardFiles recombines a complete shard set (indices 1..m of an
// m-way run, in any order) into one table per experiment, byte-identical
// to the unsharded rendering. Incomplete, overlapping or mismatched sets,
// and rows that are not exactly each shard's workloads, are rejected with
// an error naming the first problem.
func MergeShardFiles(files []*ShardFile) ([]MergedTable, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("experiment: no shard files to merge")
	}
	for i, f := range files {
		if f == nil {
			return nil, fmt.Errorf("experiment: shard file %d of %d is null", i+1, len(files))
		}
		if err := f.checkVersion(); err != nil {
			return nil, err
		}
	}
	fs := append([]*ShardFile(nil), files...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Shard.Index < fs[j].Shard.Index })
	first := fs[0]
	full := first.Params.Workloads
	if len(full) == 0 {
		return nil, fmt.Errorf("experiment: shard %s names no workloads", first.Shard)
	}
	p := Params{Seed: first.Params.Seed, TraceLen: first.Params.TraceLen, Workloads: full}
	if err := p.validate(); err != nil {
		return nil, err
	}
	of := first.Shard.Of
	if len(fs) != of {
		return nil, fmt.Errorf("experiment: have %d shard files, need all %d shards of a %d-way run", len(fs), of, of)
	}
	for i, f := range fs {
		if f.Shard.Of != of || f.Shard.Index != i+1 {
			return nil, fmt.Errorf("experiment: shard files must cover 1/%d..%d/%d exactly once; have %s where %d/%d was expected",
				of, of, of, f.Shard, i+1, of)
		}
		if !reflect.DeepEqual(f.Params, first.Params) {
			return nil, fmt.Errorf("experiment: shard %s ran different parameters than shard %s", f.Shard, first.Shard)
		}
		if len(f.Experiments) == 0 {
			return nil, fmt.Errorf("experiment: shard %s ran no experiments", f.Shard)
		}
		if len(f.Experiments) != len(first.Experiments) {
			return nil, fmt.Errorf("experiment: shard %s ran %d experiments, shard %s ran %d",
				f.Shard, len(f.Experiments), first.Shard, len(first.Experiments))
		}
		for ei := range f.Experiments {
			a, b := f.Experiments[ei], first.Experiments[ei]
			if a.Experiment != b.Experiment {
				return nil, fmt.Errorf("experiment: shard %s experiment %d is %q, shard %s has %q",
					f.Shard, ei, a.Experiment, first.Shard, b.Experiment)
			}
			if len(a.Runs) == 0 {
				return nil, fmt.Errorf("experiment: %s: shard %s has no seed runs", a.Experiment, f.Shard)
			}
			if len(a.Runs) != f.Params.Seeds {
				return nil, fmt.Errorf("experiment: %s: shard %s has %d seed runs for %d seeds",
					a.Experiment, f.Shard, len(a.Runs), f.Params.Seeds)
			}
			for ri := range a.Runs {
				if a.Runs[ri].Seed != b.Runs[ri].Seed {
					return nil, fmt.Errorf("experiment: %s run %d: shard %s ran seed %d, shard %s seed %d",
						a.Experiment, ri, f.Shard, a.Runs[ri].Seed, first.Shard, b.Runs[ri].Seed)
				}
			}
		}
	}
	var out []MergedTable
	seen := make(map[string]bool, len(first.Experiments))
	for ei, es := range first.Experiments {
		// Each experiment once, so that the work a merge does, the
		// hand-written tables included, is bounded by the seeds it averages.
		if seen[es.Experiment] {
			return nil, fmt.Errorf("experiment: %s listed twice", es.Experiment)
		}
		seen[es.Experiment] = true
		e, err := lookup(es.Experiment)
		if err != nil {
			return nil, err
		}
		perSeed := make([]*stats.Table, 0, len(es.Runs))
		for ri, run := range es.Runs {
			t, err := mergeRun(fs, ei, ri, e, p)
			if err != nil {
				return nil, fmt.Errorf("experiment: merging %s seed %d: %w", es.Experiment, run.Seed, err)
			}
			perSeed = append(perSeed, t)
		}
		tab := perSeed[0]
		if len(perSeed) > 1 {
			if tab, err = stats.AverageTables(perSeed); err != nil {
				return nil, fmt.Errorf("experiment: averaging merged %s: %w", es.Experiment, err)
			}
		}
		out = append(out, MergedTable{Experiment: es.Experiment, Table: tab})
	}
	return out, nil
}

// mergeRun builds one (experiment, seed) table of a validated shard set
// fs, whose full run parameters are p. A hand-written table is run under p
// at the run's seed. A declared one is built by decl.table from every
// shard's rows, gathered into p's presentation order: workload i's row is
// the (i/m)-th row of shard (i mod m)+1.
func mergeRun(fs []*ShardFile, ei, ri int, e entry, p Params) (*stats.Table, error) {
	if e.d == nil {
		for _, f := range fs {
			if rows := f.Experiments[ei].Runs[ri].Rows; len(rows) > 0 {
				return nil, fmt.Errorf("shard %s has a row for %q, but the table reads no workload's trace", f.Shard, rows[0].Workload)
			}
		}
		p.Seed = fs[0].Experiments[ei].Runs[ri].Seed
		return e.run(p)
	}
	for _, f := range fs {
		if err := checkRows(f.Shard, p.Workloads, f.Experiments[ei].Runs[ri].Rows, len(e.d.columns)); err != nil {
			return nil, err
		}
	}
	rows := make([]WorkloadRow, len(p.Workloads))
	for i := range rows {
		rows[i] = fs[i%len(fs)].Experiments[ei].Runs[ri].Rows[i/len(fs)]
	}
	return e.d.table(rows), nil
}

// checkRows reports the first way rows differ from shard sh's workloads of
// full, in order, each with cols cells.
func checkRows(sh plan.Shard, full []string, rows []WorkloadRow, cols int) error {
	own := sh.Partition(full)
	for j, r := range rows {
		switch {
		case !slices.Contains(own, r.Workload):
			return fmt.Errorf("shard %s has a row for %q, which it does not own", sh, r.Workload)
		case j >= len(own):
			return fmt.Errorf("shard %s has an extra row for %q", sh, r.Workload)
		case r.Workload != own[j]:
			return fmt.Errorf("shard %s row %d is %q, want its workloads %v in order", sh, j, r.Workload, own)
		case len(r.Cells) != cols:
			return fmt.Errorf("shard %s row %q has %d cells for %d columns", sh, r.Workload, len(r.Cells), cols)
		}
	}
	if len(rows) < len(own) {
		return fmt.Errorf("shard %s has no row for workload %q", sh, own[len(rows)])
	}
	return nil
}

package experiment

// This file is the sharding side of the experiment layer: one replica runs
// its partition of the canonical cell space (plan.Shard over the
// presentation-ordered workload list — the table-row axis) and exports a
// ShardFile; MergeShardFiles recombines a complete set of shard files into
// tables byte-identical to an unsharded run.
//
// Byte-identity holds because the merge replays exactly the unsharded
// arithmetic in exactly the unsharded order:
//
//   - rows are reassembled in the full workload presentation order (each
//     shard's partial table carries its assigned rows in that same order,
//     so the merge is a deterministic interleave);
//   - the "average" row is recomputed by stats.AppendAverage over the
//     reassembled rows — the same presentation-order float64 summation the
//     unsharded runner performs;
//   - multi-seed runs ship per-seed partial tables and the merge applies
//     stats.AverageTables to the reassembled per-seed tables, so the
//     mean-of-rows operation order matches RunSeeds exactly;
//   - run-wide aggregate notes travel as raw NoteAgg contributions (the
//     rendered %.1f string cannot be merged) and are re-rendered over the
//     full workload set in presentation order.
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
	"sort"

	"valuepred/internal/plan"
	"valuepred/internal/stats"
)

// ShardFileVersion is the shard artifact schema version; MergeShardFiles
// rejects files written by an incompatible producer.
const ShardFileVersion = 1

// ShardFile is the artifact one shard run exports: the partition identity,
// the full run parameters (so a merge can validate that every shard ran
// the same request), and per-experiment partial results.
type ShardFile struct {
	Version     int               `json:"version"`
	Shard       plan.Shard        `json:"shard"`
	Params      ShardParams       `json:"params"`
	Experiments []ExperimentShard `json:"experiments"`
}

// ShardParams is the canonicalized run request a shard executed. Workloads
// is the FULL selected list in presentation order (the shard's assigned
// subset is recorded per experiment); every shard of one run must carry
// identical ShardParams.
type ShardParams struct {
	Seed      int64    `json:"seed"`
	TraceLen  int      `json:"trace_len"`
	Seeds     int      `json:"seeds"`
	Workloads []string `json:"workloads"`
	Stream    bool     `json:"stream,omitempty"`
}

// ExperimentShard is one experiment's partial result on one shard.
type ExperimentShard struct {
	Experiment string `json:"experiment"`
	// WorkloadIndependent marks experiments whose table ignores the
	// workload axis entirely (table3.2's fixed walkthrough): every shard
	// runs them whole and the merge verifies the copies agree.
	WorkloadIndependent bool `json:"workload_independent,omitempty"`
	// Assigned is the shard's workload subset in presentation order.
	Assigned []string `json:"assigned"`
	// Runs holds one partial result per seed, in seed order.
	Runs []ShardRun `json:"runs"`
}

// ShardRun is one (experiment, seed) partial result: the partial table
// over the assigned workloads (nil when the shard owns no workload and the
// experiment is workload-dependent) plus the raw aggregate-note
// collectors the merge re-renders over the full workload set.
type ShardRun struct {
	Seed  int64        `json:"seed"`
	Table *stats.Table `json:"table"`
	Aggs  []NoteAgg    `json:"aggs,omitempty"`
}

// MergedTable is one experiment's recombined table.
type MergedTable struct {
	Experiment string
	Table      *stats.Table
}

// workloadIndependent registers the experiments whose tables do not have
// one row per workload. The shard/merge path must know them: their tables
// cannot be row-partitioned, so every shard runs them whole.
var workloadIndependent = map[string]bool{
	"table3.2": true,
}

// perRowNotes registers the experiments that append exactly one note per
// workload row (in row order), so the merge interleaves the shards' notes
// by the same round-robin that reassembles the rows. Experiments outside
// this map and without NoteAgg collectors must render notes that are
// identical on every shard (static annotations); the merge verifies that
// and fails loudly if a new experiment starts emitting unregistered
// per-workload notes.
var perRowNotes = map[string]bool{
	"table3.1": true,
}

// RunShardFileCtx executes the shard's partition of each experiment id —
// one partial run per seed — and returns the artifact to merge. The
// partition is plan.Shard round-robin over the full selected workload list
// in presentation order; a shard that owns no workloads still runs the
// workload-independent experiments and records empty runs for the rest.
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
	assigned := sh.Partition(full)
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
		if _, ok := registry[id]; !ok {
			return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
		}
		es := ExperimentShard{
			Experiment:          id,
			WorkloadIndependent: workloadIndependent[id],
			Assigned:            assigned,
		}
		for _, seed := range seeds {
			run := ShardRun{Seed: seed}
			if len(assigned) > 0 || es.WorkloadIndependent {
				ps := p
				ps.ctx = ctx
				ps.Seed = seed
				if !es.WorkloadIndependent {
					ps.Workloads = assigned
				}
				var aggs []NoteAgg
				ps.aggs = &aggs
				t, err := Run(id, ps)
				if err != nil {
					return nil, err
				}
				run.Table = t
				run.Aggs = aggs
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

// DecodeShardFile reads one shard artifact, rejecting unknown versions.
func DecodeShardFile(r io.Reader) (*ShardFile, error) {
	var f ShardFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("experiment: decoding shard file: %w", err)
	}
	if f.Version != ShardFileVersion {
		return nil, fmt.Errorf("experiment: shard file version %d, want %d", f.Version, ShardFileVersion)
	}
	return &f, nil
}

// MergeShardFiles recombines a complete shard set (indices 1..m of an
// m-way run, in any order) into one table per experiment, byte-identical
// to the unsharded rendering. Incomplete, overlapping or mismatched sets
// are rejected with an error naming the first problem.
func MergeShardFiles(files []*ShardFile) ([]MergedTable, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("experiment: no shard files to merge")
	}
	for i, f := range files {
		if f == nil {
			return nil, fmt.Errorf("experiment: shard file %d of %d is null", i+1, len(files))
		}
	}
	fs := append([]*ShardFile(nil), files...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Shard.Index < fs[j].Shard.Index })
	first := fs[0]
	if err := repeated(first.Params.Workloads); err != nil {
		return nil, err
	}
	of := first.Shard.Of
	if len(fs) != of {
		return nil, fmt.Errorf("experiment: have %d shard files, need all %d shards of a %d-way run", len(fs), of, of)
	}
	for i, f := range fs {
		if f.Version != ShardFileVersion {
			return nil, fmt.Errorf("experiment: shard file version %d, want %d", f.Version, ShardFileVersion)
		}
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
			if a.Experiment != b.Experiment || a.WorkloadIndependent != b.WorkloadIndependent {
				return nil, fmt.Errorf("experiment: shard %s experiment %d is %q, shard %s has %q",
					f.Shard, ei, a.Experiment, first.Shard, b.Experiment)
			}
			if len(a.Runs) == 0 {
				return nil, fmt.Errorf("experiment: %s: shard %s has no seed runs", a.Experiment, f.Shard)
			}
			if len(a.Runs) != len(b.Runs) {
				return nil, fmt.Errorf("experiment: %s: shard %s has %d seed runs, shard %s has %d",
					a.Experiment, f.Shard, len(a.Runs), first.Shard, len(b.Runs))
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
	for ei, es := range first.Experiments {
		perSeed := make([]*stats.Table, 0, len(es.Runs))
		for ri := range es.Runs {
			t, err := mergeRun(fs, ei, ri)
			if err != nil {
				return nil, fmt.Errorf("experiment: merging %s seed %d: %w", es.Experiment, es.Runs[ri].Seed, err)
			}
			perSeed = append(perSeed, t)
		}
		tab := perSeed[0]
		if len(perSeed) > 1 {
			var err error
			tab, err = stats.AverageTables(perSeed)
			if err != nil {
				return nil, fmt.Errorf("experiment: averaging merged %s: %w", es.Experiment, err)
			}
		}
		out = append(out, MergedTable{Experiment: es.Experiment, Table: tab})
	}
	return out, nil
}

// mergeRun reassembles one (experiment, seed) full table from the shard
// set: rows interleaved back into full presentation order, the average row
// recomputed, aggregate notes re-rendered from the pooled raw
// contributions, and the remaining notes either interleaved (registered
// per-row experiments) or verified identical across shards.
func mergeRun(fs []*ShardFile, ei, ri int) (*stats.Table, error) {
	es0 := fs[0].Experiments[ei]
	if es0.WorkloadIndependent {
		var ref *stats.Table
		for _, f := range fs {
			t := f.Experiments[ei].Runs[ri].Table
			if t == nil {
				continue
			}
			if ref == nil {
				ref = t
				continue
			}
			if !reflect.DeepEqual(ref, t) {
				return nil, fmt.Errorf("workload-independent tables disagree between shards")
			}
		}
		if ref == nil {
			return nil, fmt.Errorf("no shard produced the workload-independent table")
		}
		return ref, nil
	}
	full := fs[0].Params.Workloads
	of := len(fs)
	// shardTable returns the owner shard's partial table for workload
	// position i; the owner is fixed by the round-robin partition.
	shardTable := func(i int) (*stats.Table, error) {
		t := fs[i%of].Experiments[ei].Runs[ri].Table
		if t == nil {
			return nil, fmt.Errorf("shard %s owns workload %q but produced no table", fs[i%of].Shard, full[i])
		}
		return t, nil
	}
	skel, err := shardTable(0)
	if err != nil {
		return nil, err
	}
	out := &stats.Table{
		Title:     skel.Title,
		RowHeader: skel.RowHeader,
		Columns:   append([]string(nil), skel.Columns...),
		Unit:      skel.Unit,
	}
	// Reassemble the data rows in full presentation order. Each shard's
	// partial table lists its assigned rows first, in that same order, so a
	// per-shard cursor walks them without any lookup by label — though the
	// labels are still verified, so a runner that stops labelling rows by
	// workload fails here instead of merging garbage.
	cursors := make([]int, of)
	hasAverage := false
	for i, w := range full {
		t, err := shardTable(i)
		if err != nil {
			return nil, err
		}
		if !sameSkeleton(skel, t) {
			return nil, fmt.Errorf("shard %s table skeleton disagrees with shard %s", fs[i%of].Shard, fs[0].Shard)
		}
		if len(t.Rows) > 0 && t.Rows[len(t.Rows)-1].Label == "average" {
			hasAverage = true
		}
		cur := cursors[i%of]
		cursors[i%of]++
		if cur >= len(t.Rows) {
			return nil, fmt.Errorf("shard %s has %d rows, fewer than its assigned workloads", fs[i%of].Shard, len(t.Rows))
		}
		row := t.Rows[cur]
		if row.Label != w {
			return nil, fmt.Errorf("shard %s row %d is %q, expected workload %q", fs[i%of].Shard, cur, row.Label, w)
		}
		out.AddRow(row.Label, append([]float64(nil), row.Cells...)...)
	}
	if hasAverage {
		out.AppendAverage()
	}
	if err := mergeNotes(out, fs, ei, ri, full); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeNotes reconstructs the merged table's notes: non-aggregate notes
// first (interleaved for registered per-row experiments, otherwise
// verified identical across shards), then the aggregate notes re-rendered
// from the pooled contributions in full presentation order.
func mergeNotes(out *stats.Table, fs []*ShardFile, ei, ri int, full []string) error {
	id := fs[0].Experiments[ei].Experiment
	of := len(fs)
	// One aggregate collector list per contributing shard; shards with no
	// assigned workloads recorded none.
	nAggs := -1
	for _, f := range fs {
		r := f.Experiments[ei].Runs[ri]
		if r.Table == nil {
			continue
		}
		if nAggs == -1 {
			nAggs = len(r.Aggs)
		} else if len(r.Aggs) != nAggs {
			return fmt.Errorf("shard %s recorded %d aggregate notes, shard %s %d",
				f.Shard, len(r.Aggs), fs[0].Shard, nAggs)
		}
	}
	if nAggs < 0 {
		nAggs = 0
	}
	// Non-aggregate notes: every contributing shard's notes minus the
	// trailing nAggs aggregate renderings.
	plain := func(i int) ([]string, error) {
		r := fs[i].Experiments[ei].Runs[ri]
		if r.Table == nil {
			return nil, nil
		}
		if len(r.Table.Notes) < nAggs {
			return nil, fmt.Errorf("shard %s has %d notes but %d aggregate collectors", fs[i].Shard, len(r.Table.Notes), nAggs)
		}
		return r.Table.Notes[:len(r.Table.Notes)-nAggs], nil
	}
	if perRowNotes[id] {
		// One note per workload row, interleaved by the same round-robin
		// that reassembled the rows.
		cursors := make([]int, of)
		for i := range full {
			notes, err := plain(i % of)
			if err != nil {
				return err
			}
			cur := cursors[i%of]
			cursors[i%of]++
			if cur >= len(notes) {
				return fmt.Errorf("shard %s has %d per-row notes, fewer than its assigned workloads", fs[i%of].Shard, len(notes))
			}
			out.Notes = append(out.Notes, notes[cur])
		}
	} else {
		// Static annotations: identical on every contributing shard.
		var ref []string
		refShard := -1
		for i := range fs {
			notes, err := plain(i)
			if err != nil {
				return err
			}
			if fs[i].Experiments[ei].Runs[ri].Table == nil {
				continue
			}
			if refShard == -1 {
				ref, refShard = notes, i
				continue
			}
			if !reflect.DeepEqual(ref, notes) {
				return fmt.Errorf("notes disagree between shard %s and shard %s; if %s emits per-workload notes, register it in perRowNotes",
					fs[refShard].Shard, fs[i].Shard, id)
			}
		}
		out.Notes = append(out.Notes, ref...)
	}
	// Aggregate notes: pool the raw contributions back into full
	// presentation order and re-render. The per-shard contribution lists
	// are keyed maps only for lookup — iteration is over the ordered full
	// workload list, so no map order can reach the output.
	for k := 0; k < nAggs; k++ {
		var merged NoteAgg
		byShard := make([]map[string]float64, of)
		for i, f := range fs {
			r := f.Experiments[ei].Runs[ri]
			if r.Table == nil {
				continue
			}
			a := r.Aggs[k]
			if merged.Key == "" {
				merged = NoteAgg{Key: a.Key, Format: a.Format, Factor: a.Factor, Weight: a.Weight}
			} else if a.Key != merged.Key || a.Format != merged.Format || a.Factor != merged.Factor || a.Weight != merged.Weight {
				return fmt.Errorf("aggregate note %d disagrees between shards (%q vs %q)", k, a.Key, merged.Key)
			}
			m := make(map[string]float64, len(a.Contribs))
			for _, c := range a.Contribs {
				m[c.Workload] = c.Value
			}
			byShard[i] = m
		}
		for i, w := range full {
			m := byShard[i%of]
			v, ok := m[w]
			if !ok {
				return fmt.Errorf("shard %s recorded no %q contribution for workload %q", fs[i%of].Shard, merged.Key, w)
			}
			merged.Contribs = append(merged.Contribs, NoteContrib{Workload: w, Value: v})
		}
		merged.render(out)
	}
	return nil
}

// sameSkeleton reports whether two partial tables agree on everything but
// rows and notes.
func sameSkeleton(a, b *stats.Table) bool {
	return a.Title == b.Title && a.RowHeader == b.RowHeader &&
		a.Unit == b.Unit && reflect.DeepEqual(a.Columns, b.Columns)
}

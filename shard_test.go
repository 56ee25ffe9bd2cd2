package valuepred

import (
	"bytes"
	"strings"
	"testing"

	"valuepred/internal/tracestore"
)

// TestShardedMergeMatchesUnsharded is the byte-identity contract of the
// sharded run path (DESIGN.md §14): for EVERY registered experiment, the
// merge of a complete shard set must render byte-identically to the
// unsharded run. Three workloads across two shards exercises the uneven
// round-robin partition (shard 1 owns rows 1 and 3, shard 2 owns row 2):
// the merge gathers the shards' workload rows back into presentation
// order and builds each declared table with the runner's own code, so the
// average row, the static notes and the aggregate notes (fig5.x, from each
// row's raw contribution) come out as unsharded; table3.1 and table3.2,
// which no shard runs, the merge builds itself. The artifact also
// round-trips through its JSON encoding, the way vpsim -shard / -merge
// moves it between processes.
func TestShardedMergeMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment three times")
	}
	p := DefaultParams()
	p.TraceLen = 3_000
	p.Workloads = []string{"compress95", "li", "go"}
	p.Store = tracestore.New(0)

	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}

	want := make(map[string]string, len(ids))
	for _, id := range ids {
		tab, err := RunExperiment(id, p)
		if err != nil {
			t.Fatalf("unsharded %s: %v", id, err)
		}
		want[id] = renderAll(t, tab)
	}

	var files []*ShardFile
	for i := 1; i <= 2; i++ {
		sh := Shard{Index: i, Of: 2}
		f, err := RunExperimentShards(nil, ids, p, nil, sh)
		if err != nil {
			t.Fatalf("shard %s: %v", sh, err)
		}
		// Round-trip through the wire format: cells must survive JSON
		// exactly (encoding/json round-trips float64) for the merged
		// render to be byte-identical.
		var buf bytes.Buffer
		if err := f.WriteJSON(&buf); err != nil {
			t.Fatalf("shard %s: encode: %v", sh, err)
		}
		rt, err := DecodeShardFile(&buf)
		if err != nil {
			t.Fatalf("shard %s: decode: %v", sh, err)
		}
		files = append(files, rt)
	}

	// Merge in reversed order: MergeShardFiles must not care how the
	// files arrive.
	merged, err := MergeShardFiles([]*ShardFile{files[1], files[0]})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(merged) != len(ids) {
		t.Fatalf("merged %d experiments, want %d", len(merged), len(ids))
	}
	for i, m := range merged {
		if m.Experiment != ids[i] {
			t.Errorf("merged[%d] is %s, want %s", i, m.Experiment, ids[i])
			continue
		}
		if got := renderAll(t, m.Table); got != want[m.Experiment] {
			t.Errorf("%s: merged render differs from unsharded:\n%s",
				m.Experiment, firstDiff(want[m.Experiment], got))
		}
	}
}

// TestShardedMergeMatchesUnshardedMultiSeed pins the multi-seed order of
// operations: shards export per-seed rows and the merge averages the
// per-seed tables it builds from them — the same AverageTables call
// RunSeeds makes — so a sharded -seeds run is also byte-identical. fig5.1
// carries the aggregate note (dropped by averaging, exactly as unsharded),
// fig3.3 the AppendAverage path, and table3.1 and table3.2 the tables the
// merge runs itself, once per seed.
func TestShardedMergeMatchesUnshardedMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments over two seeds three times")
	}
	p := DefaultParams()
	p.TraceLen = 3_000
	p.Workloads = []string{"compress95", "li", "go"}
	p.Store = tracestore.New(0)
	ids := []string{"fig3.3", "fig5.1", "table3.1", "table3.2"}
	seeds := []int64{1, 2}

	want := make(map[string]string, len(ids))
	for _, id := range ids {
		tab, err := RunExperimentSeeds(id, p, seeds)
		if err != nil {
			t.Fatalf("unsharded %s: %v", id, err)
		}
		want[id] = renderAll(t, tab)
	}

	var files []*ShardFile
	for i := 1; i <= 2; i++ {
		f, err := RunExperimentShards(nil, ids, p, seeds, Shard{Index: i, Of: 2})
		if err != nil {
			t.Fatalf("shard %d/2: %v", i, err)
		}
		files = append(files, f)
	}
	merged, err := MergeShardFiles(files)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(merged) != len(ids) {
		t.Fatalf("merged %d experiments, want %d", len(merged), len(ids))
	}
	for _, m := range merged {
		if got := renderAll(t, m.Table); got != want[m.Experiment] {
			t.Errorf("%s: merged multi-seed render differs from unsharded:\n%s",
				m.Experiment, firstDiff(want[m.Experiment], got))
		}
	}
}

// TestMergeShardFilesRejectsBadSets covers the loud failure modes: an
// incomplete set, a duplicated shard, and parameter drift between shards.
func TestMergeShardFilesRejectsBadSets(t *testing.T) {
	p := DefaultParams()
	p.TraceLen = 2_000
	p.Workloads = []string{"compress95", "li"}
	p.Store = tracestore.New(0)
	ids := []string{"fig3.3"}

	shard := func(i int, pp Params) *ShardFile {
		f, err := RunExperimentShards(nil, ids, pp, nil, Shard{Index: i, Of: 2})
		if err != nil {
			t.Fatalf("shard %d/2: %v", i, err)
		}
		return f
	}
	s1, s2 := shard(1, p), shard(2, p)

	if _, err := MergeShardFiles([]*ShardFile{s1}); err == nil {
		t.Error("merging an incomplete shard set did not fail")
	}
	if _, err := MergeShardFiles([]*ShardFile{s1, s1}); err == nil {
		t.Error("merging a duplicated shard did not fail")
	}
	p2 := p
	p2.TraceLen = 2_500
	if _, err := MergeShardFiles([]*ShardFile{s1, shard(2, p2)}); err == nil {
		t.Error("merging shards with different parameters did not fail")
	}
	if _, err := MergeShardFiles(nil); err == nil {
		t.Error("merging zero files did not fail")
	}
	if _, err := MergeShardFiles([]*ShardFile{s1, s2}); err != nil {
		t.Errorf("merging the intact set failed: %v", err)
	}
}

// renderAll renders a table in every textual format, concatenated; the
// sharded path must match the unsharded one in all of them.
func renderAll(t *testing.T, tab *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	if err := tab.RenderCSV(&sb); err != nil {
		t.Fatalf("render csv: %v", err)
	}
	if err := tab.RenderMarkdown(&sb); err != nil {
		t.Fatalf("render markdown: %v", err)
	}
	if err := tab.RenderChart(&sb); err != nil {
		t.Fatalf("render chart: %v", err)
	}
	return sb.String()
}

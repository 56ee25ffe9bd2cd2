package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"valuepred/internal/plan"
	"valuepred/internal/tracestore"
)

// mergeBody decodes body, a POST /v1/merge request body, both ways the
// program reads shard artifacts and merges each decoding that succeeds:
// as one JSON array of shard files, the way the HTTP handler does (a null
// element becomes a nil file), and element by element through
// DecodeShardFile, the way vpsim -merge reads each file. It fails t if a
// merge reports success without a usable table.
func mergeBody(t *testing.T, body []byte) {
	t.Helper()
	merge := func(files []*ShardFile) {
		merged, err := MergeShardFiles(files)
		if err != nil {
			return
		}
		if len(merged) == 0 {
			t.Fatal("merge succeeded with no tables")
		}
		for _, m := range merged {
			if m.Table == nil {
				t.Fatalf("%s: merge succeeded with a nil table", m.Experiment)
			}
			if err := m.Table.Render(io.Discard); err != nil {
				t.Fatalf("%s: render: %v", m.Experiment, err)
			}
		}
	}
	var files []*ShardFile
	if json.Unmarshal(body, &files) == nil {
		merge(files)
	}
	var raw []json.RawMessage
	if json.Unmarshal(body, &raw) != nil {
		return
	}
	files = files[:0]
	for _, r := range raw {
		f, err := DecodeShardFile(bytes.NewReader(r))
		if err != nil {
			return
		}
		files = append(files, f)
	}
	merge(files)
}

// FuzzMergeShardFiles feeds untrusted merge request bodies to
// MergeShardFiles, which must return merged tables or an error, never
// panic. The seed corpus in testdata/fuzz holds a real two-shard fig3.1
// pair and the two bodies that used to crash the merge: an experiment with
// no seed runs, and a null shard file. The seeds added here are the intact
// set and every malformed set of TestMergeShardFilesRejectsMalformedSets.
func FuzzMergeShardFiles(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[null]`))
	for _, c := range append(malformedSets(), shardSet{"intact", "", intactSet()}) {
		body, err := json.Marshal(c.files)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(mergeBody)
}

// shardSet is a named set of shard files and, for a malformed set, a
// substring of the error the merge must reject it with.
type shardSet struct {
	name, want string
	files      []*ShardFile
}

// fig31Set returns an m-way fig3.1 shard set over workloads, shard i
// holding runs[i-1] as its only seed's rows.
func fig31Set(workloads []string, runs ...[]WorkloadRow) []*ShardFile {
	var fs []*ShardFile
	for i, rows := range runs {
		fs = append(fs, &ShardFile{
			Version: ShardFileVersion,
			Shard:   plan.Shard{Index: i + 1, Of: len(runs)},
			Params:  ShardParams{Seed: 1, TraceLen: 100, Seeds: 1, Workloads: workloads},
			Experiments: []ExperimentShard{{
				Experiment: "fig3.1", Runs: []ShardRun{{Seed: 1, Rows: rows}},
			}},
		})
	}
	return fs
}

// fig31Row is a fig3.1 row of workload w with n cells.
func fig31Row(w string, n int) WorkloadRow {
	return WorkloadRow{Workload: w, Cells: make([]float64, n)}
}

// intactSet is a well-formed two-shard fig3.1 set over go and li; each
// malformed set differs from it in one way.
func intactSet() []*ShardFile {
	cols := len(Fig31Widths)
	return fig31Set([]string{"go", "li"}, []WorkloadRow{fig31Row("go", cols)}, []WorkloadRow{fig31Row("li", cols)})
}

// malformedSets are the sets the merge must reject: those that used to
// panic it, one that lists a workload twice, which used to merge into a
// table with two rows for it, and one per rule the merge checks.
func malformedSets() []shardSet {
	cols := len(Fig31Widths)
	goRow, liRow := fig31Row("go", cols), fig31Row("li", cols)
	goLi := []string{"go", "li"}
	with := func(edit func(fs []*ShardFile)) []*ShardFile {
		fs := intactSet()
		edit(fs)
		return fs
	}
	return []shardSet{
		{"version 1", "version 1, want 2", with(func(fs []*ShardFile) { fs[0].Version, fs[1].Version = 1, 1 })},
		{"no seed runs", "no seed runs", with(func(fs []*ShardFile) {
			fs[0].Experiments[0].Runs, fs[1].Experiments[0].Runs = []ShardRun{}, []ShardRun{}
		})},
		{"null file", "is null", []*ShardFile{nil}},
		{"null among files", "is null", []*ShardFile{intactSet()[0], nil}},
		{"no experiments", "ran no experiments", with(func(fs []*ShardFile) { fs[1].Experiments = nil })},
		{"more seed runs than seeds", "2 seed runs for 1 seeds", with(func(fs []*ShardFile) {
			for _, f := range fs {
				f.Experiments[0].Runs = append(f.Experiments[0].Runs, f.Experiments[0].Runs[0])
			}
		})},
		{"experiment listed twice", "listed twice", with(func(fs []*ShardFile) {
			for _, f := range fs {
				f.Experiments = append(f.Experiments, f.Experiments[0])
			}
		})},
		{"unknown experiment", "unknown id", with(func(fs []*ShardFile) {
			fs[0].Experiments[0].Experiment, fs[1].Experiments[0].Experiment = "fig9.9", "fig9.9"
		})},
		{"no workloads", "names no workloads", fig31Set([]string{}, nil)},
		{"unknown workload", "unknown workload", fig31Set([]string{"go", "bogus"}, []WorkloadRow{goRow, fig31Row("bogus", cols)})},
		{"repeated workload", "listed twice", fig31Set([]string{"li", "li"}, []WorkloadRow{liRow, liRow})},
		{"row a shard does not own", "does not own", fig31Set(goLi, []WorkloadRow{goRow, liRow}, []WorkloadRow{liRow})},
		{"missing row", "no row for", fig31Set(goLi, []WorkloadRow{goRow}, nil)},
		{"extra row", "extra row", fig31Set(goLi, []WorkloadRow{goRow, goRow}, []WorkloadRow{liRow})},
		{"rows out of order", "in order", fig31Set(goLi, []WorkloadRow{liRow, goRow})},
		{"short row", "4 cells for 5 columns", fig31Set(goLi, []WorkloadRow{fig31Row("go", cols-1)}, []WorkloadRow{liRow})},
		{"long row", "6 cells for 5 columns", fig31Set(goLi, []WorkloadRow{goRow}, []WorkloadRow{fig31Row("li", cols+1)})},
		{"row of a hand-written table", "reads no workload's trace", with(func(fs []*ShardFile) {
			fs[0].Experiments[0].Experiment, fs[1].Experiments[0].Experiment = "table3.1", "table3.1"
		})},
	}
}

// TestMergeShardFilesRejectsMalformedSets requires the merge to reject
// every malformed set for its own reason, and to merge the intact set each
// differs from.
func TestMergeShardFilesRejectsMalformedSets(t *testing.T) {
	if _, err := MergeShardFiles(intactSet()); err != nil {
		t.Fatalf("intact set: %v", err)
	}
	for _, c := range malformedSets() {
		if _, err := MergeShardFiles(c.files); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestShardFileWithChunkSizeMerges pins lenient decoding: artifacts written
// while streamed runs recorded their chunk size still decode and merge,
// the retired field ignored.
func TestShardFileWithChunkSizeMerges(t *testing.T) {
	p := Params{Seed: 1, TraceLen: 500, Workloads: []string{"li"}, Store: tracestore.New(0), Stream: true}
	f, err := RunShardFileCtx(context.Background(), []string{"fig3.3"}, p, nil, plan.Shard{Index: 1, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(buf.Bytes(), []byte(`"stream": true`), []byte(`"stream": true, "chunk_size": 16384`), 1)
	if bytes.Equal(old, buf.Bytes()) {
		t.Fatalf("no stream field to extend in %s", buf.Bytes())
	}
	g, err := DecodeShardFile(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardFiles([]*ShardFile{g}); err != nil {
		t.Fatal(err)
	}
}

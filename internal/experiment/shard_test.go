package experiment

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"valuepred/internal/plan"
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
// pair and the two bodies that used to crash it: an experiment with no
// seed runs, and a null shard file.
func FuzzMergeShardFiles(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[null]`))
	f.Fuzz(mergeBody)
}

// TestMergeShardFilesRejectsMalformedSets pins the inputs that used to
// panic: each must now come back as an error.
func TestMergeShardFilesRejectsMalformedSets(t *testing.T) {
	shard := func(i int, runs []ShardRun) *ShardFile {
		return &ShardFile{
			Version: ShardFileVersion,
			Shard:   plan.Shard{Index: i, Of: 2},
			Params:  ShardParams{Seed: 1, TraceLen: 100, Seeds: 1, Workloads: []string{"go", "li"}},
			Experiments: []ExperimentShard{{
				Experiment: "fig3.1", Assigned: []string{[]string{"go", "li"}[i-1]}, Runs: runs,
			}},
		}
	}
	cases := []struct {
		name  string
		files []*ShardFile
	}{
		{"no seed runs", []*ShardFile{shard(1, []ShardRun{}), shard(2, []ShardRun{})}},
		{"null file", []*ShardFile{nil}},
		{"null among files", []*ShardFile{shard(1, nil), nil}},
		{"no experiments", []*ShardFile{{Version: ShardFileVersion, Shard: plan.Shard{Index: 1, Of: 1}}}},
	}
	for _, c := range cases {
		if _, err := MergeShardFiles(c.files); err == nil {
			t.Errorf("%s: merge succeeded", c.name)
		}
	}
}

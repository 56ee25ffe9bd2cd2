package serve

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"valuepred/internal/stats"
)

// FuzzDiskCacheGet writes arbitrary bytes as a key's entry file and reads
// it back through diskCache.get, the trust boundary of vpserve -cache-dir.
// get must never panic; an entry that exists is either a hit or stale; a
// hit needs a matching key, a matching identity and a non-nil table, and
// its table renders in every format. The seed corpus in testdata/fuzz
// holds a valid entry, a truncated one, a wrong identity, a wrong key, a
// null table and an empty file; since the valid file names the toolchain
// that wrote it, a valid entry stamped by the running one is added too.
func FuzzDiskCacheGet(f *testing.F) {
	const key = "fig3.1?seed=1&seeds=1&tracelen=2000&workloads=li"
	d, err := newDiskCache(f.TempDir(), 1)
	if err != nil {
		f.Fatal(err)
	}
	tab := &stats.Table{Title: "t", RowHeader: "benchmark", Columns: []string{"a"}, Unit: "%"}
	tab.AddRow("li", 1.5)
	valid, err := json.Marshal(diskEntry{Identity: currentIdentity(), Key: key, Experiment: "fig3.1", Table: tab})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(d.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit, stale := d.get(key)
		if hit == stale || hit != (got != nil) {
			t.Fatalf("hit=%v stale=%v table=%v for an existing entry", hit, stale, got != nil)
		}
		if !hit {
			return
		}
		var e diskEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Key != key || e.Identity != currentIdentity() || e.Table == nil {
			t.Fatalf("served an entry with key %q, identity %+v, table %v (decode error %v)", e.Key, e.Identity, e.Table != nil, err)
		}
		for _, render := range []func(io.Writer) error{got.Render, got.RenderCSV, got.RenderMarkdown, got.RenderChart} {
			if err := render(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := json.Marshal(got); err != nil {
			t.Fatalf("served table does not marshal: %v", err)
		}
	})
}

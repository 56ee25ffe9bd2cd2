package main

import (
	"context"
	"testing"

	"valuepred/internal/chunk"
	"valuepred/internal/experiment"
	"valuepred/internal/trace"
	"valuepred/internal/tracestore"
)

// TestReplayReproducesEveryExperiment replays each experiment a sweep runs,
// flat and streamed, on a short trace of two benchmarks and requires every
// per-benchmark cell to equal experiment.Run's table bit for bit.
func TestReplayReproducesEveryExperiment(t *testing.T) {
	const seed, n = 5, 3_000
	names := []string{"m88ksim", "perl"}
	var exps []string
	for id := range replayed {
		exps = append(exps, id)
	}
	st := tracestore.New(0)
	for _, stream := range []bool{false, true} {
		feeds := map[string]feed{}
		for _, name := range names {
			recs, err := st.Get(name, seed, n)
			if err != nil {
				t.Fatal(err)
			}
			f := feed{recs: recs, n: n}
			if stream {
				if f.seq, err = chunk.Build(trace.NewSliceSource(recs), n, 512); err != nil {
					t.Fatal(err)
				}
			}
			feeds[name] = f
		}
		r, err := newReplay(seed, names, feeds, exps)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, e := range r.exps {
			tab, err := experiment.Run(e.id, experiment.Params{Seed: seed, TraceLen: n, Workloads: names, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(tab, e.rows()) {
				t.Errorf("stream=%v: replayed %s rows %+v differ from experiment.Run's %+v", stream, e.id, e.rows(), tab.Rows)
			}
			for _, c := range e.cells {
				if len(c.mods) == 0 || c.end.Before(c.start) {
					t.Fatalf("%s: cell %s recorded no module spans", e.id, c.key)
				}
			}
		}
	}
}

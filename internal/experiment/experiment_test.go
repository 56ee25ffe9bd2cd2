package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"valuepred/internal/chunk"
	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/tracestore"
	"valuepred/internal/workload"
)

// tiny returns fast parameters for structural tests.
func tiny() Params {
	return Params{Seed: 1, TraceLen: 15_000, Workloads: []string{"compress95", "go"}}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table3.1", "table3.2", "fig3.1", "fig3.3", "fig3.4", "fig3.5",
		"fig5.1", "fig5.2", "fig5.3", "sec4",
		"ablation.banks", "ablation.hybrid", "ablation.window", "ablation.vpenalty",
		"ablation.predictor", "ablation.btb", "ablation.fetchmech",
		"ablation.lipasti", "ablation.twodelta", "diag.stalls", "diag.classes",
		"ablation.vptable", "diag.memdeps", "diag.useless", "ablation.partial", "ablation.latency",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
		if desc, ok := Describe(id); !ok || desc == "" {
			t.Errorf("experiment %q has no description", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestUnknownAndInvalid(t *testing.T) {
	if _, err := Run("nonesuch", tiny()); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := Run("fig3.1", Params{TraceLen: 0}); err == nil {
		t.Error("zero trace length accepted")
	}
	if _, err := Run("fig3.1", Params{TraceLen: 100, Workloads: []string{"bogus"}}); err == nil {
		t.Error("bogus workload accepted")
	}
	// A repeated name would declare its cells twice under the same keys.
	if _, err := Run("fig5.1", Params{TraceLen: 100, Workloads: []string{"gcc", "gcc", "li"}}); err == nil {
		t.Error("repeated workload accepted")
	}
	if _, ok := Describe("nonesuch"); ok {
		t.Error("Describe(nonesuch) succeeded")
	}
}

// TestAllExperimentsWellFormed runs every registered experiment with tiny
// parameters and checks structural invariants of the resulting tables,
// among them one cell per column in every row, which the shard merge
// requires of every row it reads.
func TestAllExperimentsWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is not short")
	}
	p := tiny()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, p)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("malformed table: %+v", tab)
			}
			for _, r := range tab.Rows {
				if len(r.Cells) != len(tab.Columns) {
					t.Errorf("row %q has %d cells for %d columns", r.Label, len(r.Cells), len(tab.Columns))
				}
			}
			var sb strings.Builder
			if err := tab.Render(&sb); err != nil {
				t.Fatal(err)
			}
			if err := tab.RenderCSV(&sb); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHandWrittenTablesReadNoTrace pins what the shard merge assumes of
// the experiments no shard runs: it builds them itself, so each must read
// no trace, leaving a fresh store's counters at zero.
func TestHandWrittenTablesReadNoTrace(t *testing.T) {
	var ids []string
	for _, id := range IDs() {
		if registry[id].d != nil {
			continue
		}
		ids = append(ids, id)
		p := tiny()
		p.Store = tracestore.New(0)
		if _, err := Run(id, p); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if st := p.Store.Stats(); st != (tracestore.Stats{}) {
			t.Errorf("%s touched the trace store: %+v", id, st)
		}
	}
	if strings.Join(ids, " ") != "table3.1 table3.2" {
		t.Errorf("hand-written tables are %v, want table3.1 and table3.2", ids)
	}
}

// TestFig31RowsMatchWorkloads checks row labels and the average row.
func TestFig31RowsMatchWorkloads(t *testing.T) {
	tab, err := Run("fig3.1", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // two workloads + average
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0].Label != "compress95" || tab.Rows[1].Label != "go" || tab.Rows[2].Label != "average" {
		t.Errorf("row labels = %v", []string{tab.Rows[0].Label, tab.Rows[1].Label, tab.Rows[2].Label})
	}
	if len(tab.Columns) != len(Fig31Widths) {
		t.Errorf("columns = %v", tab.Columns)
	}
}

// TestTable32Exact pins the paper's walk-through cycles.
func TestTable32Exact(t *testing.T) {
	tab, err := Run("table3.2", Params{})
	if err != nil {
		t.Fatal(err)
	}
	// 8 instruction rows (plus the HALT row, which also executes).
	if len(tab.Rows) < 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Instruction #1 fetch cycle 1, execute 3; instruction #6 execute 4.
	if v, _ := tab.Cell("#1", "fetch"); v != 1 {
		t.Errorf("#1 fetch = %v", v)
	}
	if v, _ := tab.Cell("#1", "execute"); v != 3 {
		t.Errorf("#1 execute = %v", v)
	}
	if v, _ := tab.Cell("#6", "execute"); v != 4 {
		t.Errorf("#6 execute = %v", v)
	}
	if len(tab.Notes) == 0 {
		t.Error("no per-cycle notes rendered")
	}
}

// TestTable31ListsAllBenchmarks verifies the descriptions table.
func TestTable31ListsAllBenchmarks(t *testing.T) {
	tab, err := Run("table3.1", Params{Seed: 1, TraceLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(workload.Names()) {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	joined := strings.Join(tab.Notes, "\n")
	for _, want := range []string{"Lempel-Ziv", "88100", "Lisp", "Anagram", "JPEG", "database", "compiler", "Game"} {
		if !strings.Contains(joined, want) {
			t.Errorf("descriptions missing %q", want)
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.TraceLen <= 0 || len(p.workloads()) != 8 {
		t.Errorf("DefaultParams = %+v", p)
	}
}

// TestRunCtxCancellation is the regression test for the cancellation path:
// a canceled or expired context aborts a run with an error that callers can
// tell apart from a validation failure via errors.Is, and cancellation
// arriving mid-run (between workload checkpoints) is honoured.
func TestRunCtxCancellation(t *testing.T) {
	p := tiny()
	p.Store = tracestore.New(0)

	// Already-canceled context: aborted before any simulation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, "fig5.1", p); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want errors.Is(err, context.Canceled)", err)
	}

	// Expired deadline: distinguishable as DeadlineExceeded.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	if _, err := RunCtx(dctx, "fig5.1", p); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}

	// Validation errors never carry a context error, even under a live ctx.
	bad := p
	bad.TraceLen = -1
	if _, err := RunCtx(context.Background(), "fig5.1", bad); err == nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("validation err = %v, want a plain validation error", err)
	}

	// A nil context behaves like Run.
	if _, err := RunCtx(nil, "table3.1", p); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatalf("nil ctx: %v", err)
	}

	// Mid-run cancellation: cancel while the first seed simulates; the
	// multi-seed loop's checkpoint must abort before the second seed.
	mctx, mcancel := context.WithCancel(context.Background())
	mcancel()
	if _, err := RunSeedsCtx(mctx, "fig3.3", p, []int64{1, 2, 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSeedsCtx canceled: err = %v", err)
	}
}

// cancelingPredictor is a stride predictor that cancels a run once it has
// been updated n times, and counts its updates.
type cancelingPredictor struct {
	predictor.Predictor
	n, updates int
	cancel     context.CancelFunc
}

func (c *cancelingPredictor) Update(pc, actual uint64) {
	if c.updates++; c.updates == c.n {
		c.cancel()
	}
	c.Predictor.Update(pc, actual)
}

// TestStreamedPassCancelsBetweenBlocks cancels a streamed run from inside
// its pass, while the recorder reads the first decoded block: the recorder
// must finish that block and see no other, and the run must fail as an
// aborted run that errors.Is tells apart.
func TestStreamedPassCancelsBetweenBlocks(t *testing.T) {
	p := Params{Seed: 1, TraceLen: 3 * chunk.DefaultSize, Workloads: []string{"li"}, Stream: true, Store: tracestore.New(0)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.ctx = ctx
	rec := &cancelingPredictor{Predictor: predictor.NewClassifiedStride(), n: 100, cancel: cancel}
	d := decl{
		id:    "cancel",
		preds: []vpSpec{{"canceling", func(feed) predictor.Predictor { return rec }}},
		cells: []cell{{"", "vp", idealAt(8).replaying("canceling")}},
		row:   func(row) []float64 { return nil },
	}
	_, err := d.run(p)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "run aborted") {
		t.Fatalf("err = %v, want an aborted run wrapping context.Canceled", err)
	}
	writers := 0
	for _, r := range workload.MustTrace("li", 1, chunk.DefaultSize) {
		if r.WritesValue() {
			writers++
		}
	}
	if rec.updates != writers {
		t.Fatalf("the recorder made %d updates, want the %d value writers of the first block", rec.updates, writers)
	}
}

// TestPreloadAsyncSkipsCanceled is the regression test for background
// preloads outliving an aborted run: once the run's context is canceled,
// preloadAsync must not hand the trace store a generation that nothing
// will ever read.
func TestPreloadAsyncSkipsCanceled(t *testing.T) {
	p := tiny()
	p.Store = tracestore.New(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.ctx = ctx

	p.preloadAsync(99)
	// The skip is synchronous (no goroutine is spawned for a canceled run),
	// so the store must stay untouched immediately and stay that way.
	time.Sleep(10 * time.Millisecond)
	if st := p.Store.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("canceled preload touched the store: %+v", st)
	}

	// Sanity check: with a live context the same preload does warm the store.
	p.ctx = context.Background()
	p.preloadAsync(99)
	deadline := time.Now().Add(10 * time.Second)
	for p.Store.Stats().Entries < len(p.workloads()) {
		if time.Now().After(deadline) {
			t.Fatalf("live preload never warmed the store: %+v", p.Store.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPredictorCounters pins the predictor.* counters a run reports to a
// count made without the simulator: over fig3.1 (one classified stride
// stream per workload) and ablation.lipasti (a loads-only and an
// all-instruction stream per workload), every recorded stream looks up and
// updates each value-writing record once, and the lookups with a value and
// the confident ones are those EvaluateSource counts with fresh predictors
// over the same traces.
func TestPredictorCounters(t *testing.T) {
	reg := obs.NewRegistry()
	p := Params{Seed: 1, TraceLen: 3_000, Workloads: []string{"li", "go"}, Obs: obs.New(reg, nil)}
	for _, id := range []string{"fig3.1", "ablation.lipasti"} {
		if _, err := Run(id, p); err != nil {
			t.Fatal(err)
		}
	}
	var writers, hasValue, confident uint64
	for _, name := range p.Workloads {
		recs := workload.MustTrace(name, p.Seed, p.TraceLen)
		for _, pred := range []predictor.Predictor{
			predictor.NewClassifiedStride(), // fig3.1
			predictor.NewLoadsOnlyFromSource(predictor.NewClassifiedStride(), trace.NewSliceSource(recs)),
			predictor.NewClassifiedStride(), // ablation.lipasti's all-instruction stream
		} {
			for _, r := range recs {
				if r.WritesValue() {
					writers++
				}
			}
			acc := predictor.EvaluateSource(pred, trace.NewSliceSource(recs))
			hasValue += acc.Attempted
			confident += acc.ConfidentAttempted
		}
	}
	if writers == 0 || confident == 0 {
		t.Fatalf("degenerate traces: %d value writers, %d confident lookups", writers, confident)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"predictor.lookups":          writers,
		"predictor.updates":          writers,
		"predictor.lookup.has_value": hasValue,
		"predictor.lookup.confident": confident,
	} {
		if got, _ := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

package main

import (
	"reflect"
	"testing"

	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/core"
	"valuepred/internal/fetch"
	"valuepred/internal/obs"
	"valuepred/internal/pipeline"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

func testTrace(t *testing.T, n int) []trace.Rec {
	t.Helper()
	recs, err := workload.Trace("m88ksim", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestPredictorDecoratorKeepsStrideSource(t *testing.T) {
	c := &cell{}
	stride := timePredictor(predictor.NewClassifiedStride(), c.mod("predictor", nil))
	if _, ok := stride.(predictor.StrideSource); !ok {
		t.Fatal("a wrapped StrideSource predictor is no longer a StrideSource")
	}
	fcm := timePredictor(predictor.NewFCM(2), c.mod("predictor", nil))
	if _, ok := fcm.(predictor.StrideSource); ok {
		t.Fatal("a wrapped predictor gained StrideSource it does not have")
	}

	// Through the banked network, which expands merged duplicate-PC
	// requests only through StrideSource, the wrapped predictor must give
	// the same slots as the bare one.
	recs := testTrace(t, 20_000)
	bare := core.MustNew(core.DefaultConfig())
	cfg := core.DefaultConfig()
	cfg.Predictor = timePredictor(cfg.Predictor, c.mod("predictor", nil))
	wrapped := core.MustNew(cfg)
	eng := fetch.NewTraceCache(recs, btb.NewPerfect(), fetch.DefaultTCConfig())
	for {
		g, ok := eng.NextGroup(40)
		if !ok {
			break
		}
		var pcs []uint64
		for _, r := range g.Recs {
			if r.WritesValue() {
				pcs = append(pcs, r.PC)
			}
		}
		want := append([]core.Slot(nil), bare.ProcessGroup(pcs)...)
		if got := wrapped.ProcessGroup(pcs); !reflect.DeepEqual(got, want) {
			t.Fatalf("slots differ through the decorator:\n got %+v\nwant %+v", got, want)
		}
		for _, r := range g.Recs {
			if r.WritesValue() {
				bare.Update(r.PC, r.Val)
				wrapped.Update(r.PC, r.Val)
			}
		}
	}
	if bare.Stats() != wrapped.Stats() {
		t.Fatalf("router stats differ: %+v vs %+v", wrapped.Stats(), bare.Stats())
	}
	if bare.Stats().MergedServed == 0 {
		t.Fatal("the trace exercised no merged requests; the check proves nothing")
	}
}

func TestEngineDecoratorKeepsObsSetter(t *testing.T) {
	recs := testTrace(t, 5_000)
	c := &cell{}
	eng := timeEngine(fetch.NewSequential(recs, btb.NewPerfect(), 2), c.mod("fetch.sequential", nil))
	if _, ok := eng.(fetch.ObsSetter); !ok {
		t.Fatal("the engine decorator hides fetch.ObsSetter")
	}
	reg := obs.NewRegistry()
	cfg := pipeline.DefaultConfig()
	cfg.Obs = obs.New(reg, nil)
	if _, err := pipeline.Run(eng, cfg); err != nil {
		t.Fatal(err)
	}
	groups := uint64(0)
	for _, cv := range reg.Snapshot().Counters {
		if cv.Name == "fetch.groups" {
			groups = cv.Value
		}
	}
	if groups == 0 {
		t.Fatal("the pipeline's sink never reached the wrapped engine")
	}
}

func TestDecoratedMachinesMatchBareOnes(t *testing.T) {
	recs := testTrace(t, 20_000)
	q, err := chunk.Build(trace.NewSliceSource(recs), 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []feed{{recs: recs, n: len(recs)}, {seq: q, n: len(recs)}} {
		c := &cell{}
		got, net, err := c.runPipeline(f, traceCacheEngine, btb.NewPerfect(), core.DefaultConfig().Predictor, true)
		if err != nil {
			t.Fatal(err)
		}
		wantNet := core.MustNew(core.DefaultConfig())
		cfg := pipeline.DefaultConfig()
		cfg.Network = wantNet
		want, err := pipeline.Run(fetch.NewTraceCache(recs, btb.NewPerfect(), fetch.DefaultTCConfig()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || net.Stats() != wantNet.Stats() {
			t.Fatalf("stream=%v: decorated run differs:\n got %+v\nwant %+v", f.seq != nil, got, want)
		}
		var decoded *modSpan
		for _, m := range c.mods {
			if m.name == "chunk.decode" {
				decoded = m
			}
		}
		if f.seq != nil && (decoded == nil || decoded.recs != int64(len(recs)) || decoded.calls == 0) {
			t.Fatalf("stream: decode span %+v does not account for %d records", decoded, len(recs))
		}
	}
}

func TestSourceDecoratorKeepsCursorAndFlatStaysBare(t *testing.T) {
	recs := testTrace(t, 10_000)
	c := &cell{}
	flat := feed{recs: recs, n: len(recs)}.source(c, nil)
	if _, ok := flat.(*trace.SliceSource); !ok {
		t.Fatalf("flat feed source is %T; fetch only takes its zero-copy path for *trace.SliceSource", flat)
	}
	q, err := chunk.Build(trace.NewSliceSource(recs), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	src := feed{seq: q, n: len(recs)}.source(c, nil)
	l, ok := src.(interface {
		Len() int
		Err() error
	})
	if !ok || l.Len() != len(recs) {
		t.Fatalf("stream source %T lost the cursor's Len/Err", src)
	}
	got := trace.Collect(src, 0)
	if !reflect.DeepEqual(got, recs) || l.Err() != nil {
		t.Fatal("the decorated cursor does not replay the trace")
	}
	m := c.mods[len(c.mods)-1]
	// One decode per 1000-record block, plus the final empty call.
	if m.calls != 11 || m.recs != int64(len(recs)) {
		t.Fatalf("decode span counted %d timed calls and %d records, want 11 and %d", m.calls, m.recs, len(recs))
	}
}

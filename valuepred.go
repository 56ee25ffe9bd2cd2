// Package valuepred is a reproduction of Gabbay & Mendelson, "The Effect of
// Instruction Fetch Bandwidth on Value Prediction" (ISCA 1998): a
// trace-driven micro-architecture simulation library with eight
// SPEC95-integer analogue workloads, last-value/stride/hybrid value
// predictors, dataflow (DID) analysis, the paper's ideal and realistic
// machine models, a 2-level PAp BTB, a trace cache, and the paper's banked
// value-prediction delivery network (address router + value distributor).
//
// The package is a facade over the internal implementation packages; every
// table and figure of the paper can be regenerated through RunExperiment or
// the cmd/vpsim tool, and the building blocks (traces, predictors, machine
// models) are exposed for custom studies. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package valuepred

import (
	"context"
	"fmt"
	"io"

	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/core"
	"valuepred/internal/dfg"
	"valuepred/internal/experiment"
	"valuepred/internal/fetch"
	"valuepred/internal/ideal"
	"valuepred/internal/obs"
	"valuepred/internal/pipeline"
	"valuepred/internal/plan"
	"valuepred/internal/predictor"
	"valuepred/internal/stats"
	"valuepred/internal/trace"
	"valuepred/internal/tracestore"
	"valuepred/internal/workload"
)

// --- traces and workloads ---

// Rec is one dynamic instruction of a workload trace.
type Rec = trace.Rec

// TraceSummary aggregates a trace's composition.
type TraceSummary = trace.Summary

// Benchmark describes one of the eight SPEC95-integer analogues.
type Benchmark struct {
	Name        string
	Description string
}

// Benchmarks lists the workloads in the paper's Table 3.1 order.
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, s := range workload.All() {
		out = append(out, Benchmark{Name: s.Name, Description: s.Description})
	}
	return out
}

// Trace returns the trace of the named workload for n dynamic instructions
// with inputs derived from seed. Traces are served from the process-wide
// trace store: the emulator runs at most once per (workload, seed, length),
// concurrent requests are deduplicated, and a longer cached trace serves
// shorter requests by prefix. The returned slice is shared between callers
// and must be treated as read-only; use TraceUncached for a private copy.
func Trace(name string, seed int64, n int) ([]Rec, error) {
	return tracestore.Shared().Get(name, seed, n)
}

// TraceUncached executes the named workload directly, bypassing the trace
// store, and returns a freshly generated (caller-owned, mutable) trace.
func TraceUncached(name string, seed int64, n int) ([]Rec, error) {
	return workload.Trace(name, seed, n)
}

// PreloadTraces warms the trace store with the named workloads (nil = all
// eight benchmarks) at the given seed and length, running the emulators
// concurrently. Subsequent Trace and RunExperiment calls at that seed and
// up to that length are then cache hits.
func PreloadTraces(names []string, seed int64, n int) error {
	if len(names) == 0 {
		names = workload.Names()
	}
	return tracestore.Shared().Preload(names, seed, n)
}

// PreloadStreamTraces warms the shared store's streaming side (DESIGN.md
// §13): each named workload (nil = all eight benchmarks) is generated once
// and cached as a compressed chunk sequence instead of a flat slice, so a
// subsequent streamed run (Params.Stream) at that seed and up to that
// length is a cache hit whose resident cost is the compressed bytes, not
// 64 bytes per record.
func PreloadStreamTraces(names []string, seed int64, n int) error {
	if len(names) == 0 {
		names = workload.Names()
	}
	return tracestore.Shared().PreloadStream(names, seed, n, chunk.DefaultSize)
}

// TraceStoreStats is a snapshot of the shared trace store's counters.
type TraceStoreStats = tracestore.Stats

// TraceStoreMetrics reports the shared trace store's hit/miss/evict/dedup
// counters and current occupancy.
func TraceStoreMetrics() TraceStoreStats { return tracestore.Shared().Stats() }

// ResetTraceStore drops every cached trace and zeroes the store's counters,
// returning the memory to the garbage collector.
func ResetTraceStore() { tracestore.Shared().Reset() }

// Summarize aggregates trace statistics.
func Summarize(recs []Rec) TraceSummary { return trace.SummarizeSource(trace.NewSliceSource(recs)) }

// --- value predictors ---

// Prediction is a value predictor's reply.
type Prediction = predictor.Prediction

// Predictor is the value-predictor interface (Lookup at fetch, Update with
// the committed value).
type Predictor = predictor.Predictor

// NewLastValuePredictor returns an infinite last-value predictor.
func NewLastValuePredictor() Predictor { return predictor.NewLastValue() }

// NewStridePredictor returns an infinite stride predictor.
func NewStridePredictor() Predictor { return predictor.NewStride() }

// NewClassifiedStridePredictor returns the paper's predictor: an infinite
// stride table gated by 2-bit saturating confidence counters.
func NewClassifiedStridePredictor() Predictor { return predictor.NewClassifiedStride() }

// NewHybridPredictor returns the Section 4.2 hybrid (infinite last-value
// table + strideEntries-entry stride table) with optional profiling hints.
func NewHybridPredictor(strideEntries int, hints *ProfileHints) Predictor {
	if hints == nil {
		return predictor.NewHybrid(strideEntries, nil)
	}
	return predictor.NewHybrid(strideEntries, hints)
}

// NewFCMPredictor returns an infinite finite-context-method (two-level,
// context-based) value predictor of the given order, per the paper's
// reference [22] (Sazeides & Smith).
func NewFCMPredictor(order int) Predictor { return predictor.NewFCM(order) }

// NewClassifiedFCMPredictor returns an FCM predictor gated by 2-bit
// confidence counters.
func NewClassifiedFCMPredictor(order int) Predictor { return predictor.NewClassifiedFCM(order) }

// NewTwoDeltaStridePredictor returns the two-delta stride predictor of the
// paper's technical reports: the prediction stride is replaced only after
// the same new delta is observed twice.
func NewTwoDeltaStridePredictor() Predictor { return predictor.NewTwoDeltaStride() }

// NewLoadsOnlyPredictor restricts inner to the load instructions appearing
// in recs, modelling load-value prediction per the paper's reference [13].
func NewLoadsOnlyPredictor(inner Predictor, recs []Rec) Predictor {
	return predictor.NewLoadsOnlyFromSource(inner, trace.NewSliceSource(recs))
}

// ProfileHints hold per-instruction opcode hints derived from a profiling
// run (the compiler-feedback mechanism of Section 4.2).
type ProfileHints = predictor.ProfileHints

// Profile derives opcode hints from a trace prefix; instructions whose best
// method stays below minAccuracy are marked no-predict.
func Profile(recs []Rec, minAccuracy float64) *ProfileHints {
	return predictor.ProfileSource(trace.NewSliceSource(recs), minAccuracy)
}

// PredictorAccuracy evaluates p over the value-producing instructions of a
// trace.
type PredictorAccuracy = predictor.Accuracy

// EvaluatePredictor measures a predictor's accuracy over a trace.
func EvaluatePredictor(p Predictor, recs []Rec) PredictorAccuracy {
	return predictor.EvaluateSource(p, trace.NewSliceSource(recs))
}

// --- dataflow (DID) analysis ---

// DIDAnalysis is the Section 3.3 dataflow-graph analysis result.
type DIDAnalysis = dfg.Analysis

// AnalyzeDID scans a trace and computes DID statistics over its register
// dataflow graph (set includeMemoryDeps to add store→load arcs).
func AnalyzeDID(recs []Rec, includeMemoryDeps bool) *DIDAnalysis {
	return dfg.AnalyzeSource(trace.NewSliceSource(recs), dfg.Config{IncludeMemoryDeps: includeMemoryDeps})
}

// --- machine models ---

// IdealConfig parameterises the Section 3 ideal machine. It is the same
// type as MachineConfig: the ideal machine is the Section 5 machine behind
// perfect fetch, with Width as its fetch width.
type IdealConfig = ideal.Config

// IdealResult is the ideal machine's outcome.
type IdealResult = ideal.Result

// NewIdealConfig returns the paper's Section 3 configuration at a fetch
// width (window 40, memory dependencies on, no predictor).
func NewIdealConfig(fetchWidth int) IdealConfig { return ideal.DefaultConfig(fetchWidth) }

// RunIdeal simulates a trace on the ideal machine.
func RunIdeal(recs []Rec, cfg IdealConfig) (IdealResult, error) {
	return ideal.Run(trace.NewSliceSource(recs), cfg)
}

// IdealSpeedup returns the percent IPC gain of vp over base.
func IdealSpeedup(base, vp IdealResult) float64 { return ideal.Speedup(base, vp) }

// MachineConfig parameterises the Section 5 realistic machine.
type MachineConfig = pipeline.Config

// MachineResult is the realistic machine's outcome.
type MachineResult = pipeline.Result

// NewMachineConfig returns the paper's Section 5 machine (40-wide, window
// 40, 3-cycle branch penalty) without value prediction.
func NewMachineConfig() MachineConfig { return pipeline.DefaultConfig() }

// RunMachine simulates the trace delivered by a fetch engine.
func RunMachine(eng FetchEngine, cfg MachineConfig) (MachineResult, error) {
	return pipeline.Run(eng, cfg)
}

// MachineSpeedup returns the percent IPC gain of vp over base.
func MachineSpeedup(base, vp MachineResult) float64 { return pipeline.Speedup(base, vp) }

// --- branch prediction and fetch engines ---

// BranchPredictor is the control-flow predictor interface.
type BranchPredictor = btb.Predictor

// NewPerfectBTB returns the ideal branch predictor.
func NewPerfectBTB() BranchPredictor { return btb.NewPerfect() }

// NewTwoLevelBTB returns the paper's 2-level PAp BTB (2K entries, 2-way,
// 4-bit histories).
func NewTwoLevelBTB() BranchPredictor { return btb.NewTwoLevel(btb.DefaultTwoLevelConfig()) }

// NewGShareBTB returns a gshare direction predictor with a 2K-entry target
// buffer — a post-paper alternative used by ablation.btb to show the
// headroom better branch prediction buys value prediction.
func NewGShareBTB() BranchPredictor { return btb.NewGShare() }

// FetchEngine delivers one fetch group per cycle to the realistic machine.
type FetchEngine = fetch.Engine

// FetchStats carries fetch-engine statistics.
type FetchStats = fetch.Stats

// NewSequentialFetch returns the conventional fetch engine limited to
// maxTaken taken branches per cycle (maxTaken < 0 = unlimited).
func NewSequentialFetch(recs []Rec, bp BranchPredictor, maxTaken int) FetchEngine {
	return fetch.NewSequential(recs, bp, maxTaken)
}

// TraceCacheConfig parameterises the trace cache, whose organisation is
// the paper's: 64 entries of up to 32 instructions or 6 blocks.
type TraceCacheConfig = fetch.TCConfig

// NewTraceCacheConfig returns the paper's trace cache without partial
// matching.
func NewTraceCacheConfig() TraceCacheConfig { return fetch.DefaultTCConfig() }

// NewTraceCacheFetch returns the trace-cache fetch engine.
func NewTraceCacheFetch(recs []Rec, bp BranchPredictor, cfg TraceCacheConfig) FetchEngine {
	return fetch.NewTraceCache(recs, bp, cfg)
}

// NewCollapsingBufferFetch returns the collapsing-buffer fetch engine of
// Conte et al. (surveyed in the paper's Section 2.2): two possibly
// noncontiguous 16-instruction cache lines per cycle.
func NewCollapsingBufferFetch(recs []Rec, bp BranchPredictor) FetchEngine {
	return fetch.NewCollapsingBufferSource(trace.NewSliceSource(recs), bp)
}

// --- the banked prediction network (Section 4) ---

// NetworkConfig parameterises the value-prediction delivery network.
type NetworkConfig = core.Config

// Network is the banked prediction table with address router and value
// distributor.
type Network = core.Network

// NetworkStats reports router/distributor behaviour.
type NetworkStats = core.Stats

// NewNetworkConfig returns a 16-bank single-ported network over the
// classified stride predictor.
func NewNetworkConfig() NetworkConfig { return core.DefaultConfig() }

// NewNetwork builds a prediction network.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return core.NewNetwork(cfg) }

// --- observability ---

// MetricsRegistry is a concurrency-safe collection of named counters,
// gauges and histograms with deterministic snapshots.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time, name-ordered copy of a registry.
type MetricsSnapshot = obs.Snapshot

// Tracer collects cycle-level simulation events and exports Chrome
// trace_event JSON viewable in chrome://tracing or Perfetto.
type Tracer = obs.Tracer

// ObsSink is the write-only instrumentation handle accepted by
// MachineConfig.Obs, IdealConfig.Obs and Params.Obs. Metrics observe, they
// never steer: simulation results are bit-identical with or without one.
type ObsSink = obs.Sink

// Manifest is the machine-readable record of one simulator invocation.
type Manifest = obs.Manifest

// Progress is the live cell-grid aggregator: attach it to a sink with
// ObsSink.WithProgress and the execution engine reports every cell's
// lifecycle into it; read it back concurrently with Snapshot (cells
// done/total, per-experiment EWMA cell latency and derived ETA). Strictly
// write-only from the simulator's side — live progress can never steer a
// run, and tables stay byte-identical with or without it.
type Progress = obs.Progress

// ProgressSnapshot is a point-in-time copy of a Progress aggregator.
type ProgressSnapshot = obs.ProgressSnapshot

// EventLog is the structured event stream of the engine and server: one
// JSON object per line with a fixed field order (ts, span, component,
// event, fields). Attach it with ObsSink.WithEventLog.
type EventLog = obs.EventLog

// EventField is one key/value pair of an event's payload.
type EventField = obs.Field

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventTracer returns a tracer recording counter events every sample
// cycles (sample < 1 is treated as 1).
func NewEventTracer(sample int) *Tracer { return obs.NewTracer(sample) }

// NewObsSink returns a sink recording into reg and tr; either may be nil,
// and with both nil the returned sink is nil (fully disabled — every method
// is a no-op on a nil sink).
func NewObsSink(reg *MetricsRegistry, tr *Tracer) *ObsSink { return obs.New(reg, tr) }

// BeginManifest starts a run manifest for the named tool.
func BeginManifest(tool string) *Manifest { return obs.Begin(tool) }

// NewProgress returns an empty live-progress aggregator.
func NewProgress() *Progress { return obs.NewProgress() }

// NewEventLog returns an event log writing one JSON line per event to w.
func NewEventLog(w io.Writer) *EventLog { return obs.NewEventLog(w) }

// InstrumentTraceStore mirrors the shared trace store's counters into reg
// under the "tracestore." prefix.
func InstrumentTraceStore(reg *MetricsRegistry) { tracestore.Shared().Instrument(reg) }

// InstrumentTraceStoreEvents attaches l to the shared trace store: every
// cache miss that runs an emulator emits generate.start/generate.done
// events with the workload, seed and wall milliseconds. A nil log
// detaches.
func InstrumentTraceStoreEvents(l *EventLog) { tracestore.Shared().InstrumentEvents(l) }

// --- the execution engine ---

// SetWorkers resizes the process-global simulation worker pool shared by
// every experiment grid, background preload and vpserve flight; n < 1
// restores the default, GOMAXPROCS. Running cells finish on their old
// admissions; the new width applies to cells not yet admitted. Returns
// the previous width so callers can restore it. Tables are byte-identical
// at any width: the plan runner merges results in canonical order, so the
// worker count changes wall-clock time, never output.
func SetWorkers(n int) int { return plan.SetWorkers(n) }

// Workers returns the current width of the shared simulation worker pool.
func Workers() int { return plan.Workers() }

// --- experiments ---

// Params configures an experiment run.
type Params = experiment.Params

// Table is a rendered experiment result.
type Table = stats.Table

// DefaultParams returns seed 1 with 200k-instruction traces.
func DefaultParams() Params { return experiment.DefaultParams() }

// ExperimentInfo names a reproducible table or figure.
type ExperimentInfo struct {
	ID          string
	Description string
}

// Experiments lists every reproducible experiment.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, id := range experiment.IDs() {
		desc, _ := experiment.Describe(id)
		out = append(out, ExperimentInfo{ID: id, Description: desc})
	}
	return out
}

// RunExperiment regenerates a table or figure by ID (e.g. "fig3.1",
// "fig5.3", "ablation.banks").
func RunExperiment(id string, p Params) (*Table, error) {
	t, err := experiment.Run(id, p)
	if err != nil {
		return nil, fmt.Errorf("valuepred: %w", err)
	}
	return t, nil
}

// RunExperimentSeeds runs an experiment once per seed and returns the
// element-wise average table, reducing input-generation noise. Traces come
// from the shared trace store: each (workload, seed) pair is emulated at
// most once per process, and while one seed simulates the next seed's
// traces are generated in the background.
func RunExperimentSeeds(id string, p Params, seeds []int64) (*Table, error) {
	t, err := experiment.RunSeeds(id, p, seeds)
	if err != nil {
		return nil, fmt.Errorf("valuepred: %w", err)
	}
	return t, nil
}

// RunExperimentCtx is RunExperiment under a context: the run aborts
// cooperatively at its checkpoints (trace fetch, workload start, between
// seeds) once ctx is canceled, and the returned error then satisfies
// errors.Is(err, ctx.Err()). Validation failures are never dressed up as
// context errors, so the two remain distinguishable.
func RunExperimentCtx(ctx context.Context, id string, p Params) (*Table, error) {
	t, err := experiment.RunCtx(ctx, id, p)
	if err != nil {
		return nil, fmt.Errorf("valuepred: %w", err)
	}
	return t, nil
}

// RunExperimentSeedsCtx is RunExperimentSeeds under a context, with the
// same cancellation semantics as RunExperimentCtx.
func RunExperimentSeedsCtx(ctx context.Context, id string, p Params, seeds []int64) (*Table, error) {
	t, err := experiment.RunSeedsCtx(ctx, id, p, seeds)
	if err != nil {
		return nil, fmt.Errorf("valuepred: %w", err)
	}
	return t, nil
}

// --- sharded runs ---

// Shard identifies one partition of a sharded run: partition Index of Of,
// 1-based, assigned round-robin over the presentation-ordered workload
// list (vpsim/vpserve's -shard n/m flag).
type Shard = plan.Shard

// ShardFile is the artifact a shard run exports (vpsim -shard): the
// partition identity, the canonical run parameters, and per experiment and
// seed the rows of the workloads the shard owns, each with its cells and
// its raw contribution to the table's aggregate note. It holds no table:
// the merge builds every table with the code an unsharded run uses, and
// builds table3.1 and table3.2, which read no trace, itself.
type ShardFile = experiment.ShardFile

// MergedShardTable is one experiment's table recombined from a complete
// shard set, byte-identical to the unsharded run.
type MergedShardTable = experiment.MergedTable

// ParseShard parses the "n/m" shard flag syntax.
func ParseShard(s string) (Shard, error) { return plan.ParseShard(s) }

// RunExperimentShards runs one shard's partition of each experiment id —
// one partial run per seed — and returns the artifact to merge with the
// other shards' files. ctx may be nil for an uncancellable run.
func RunExperimentShards(ctx context.Context, ids []string, p Params, seeds []int64, sh Shard) (*ShardFile, error) {
	f, err := experiment.RunShardFileCtx(ctx, ids, p, seeds, sh)
	if err != nil {
		return nil, fmt.Errorf("valuepred: %w", err)
	}
	return f, nil
}

// MergeShardFiles recombines a complete shard set (all m files of an m-way
// run, any order) into one table per experiment. The merge builds each
// table from the shards' rows in presentation order with the unsharded
// runner's code, so the rendered tables are byte-identical to a run
// without -shard.
func MergeShardFiles(files []*ShardFile) ([]MergedShardTable, error) {
	out, err := experiment.MergeShardFiles(files)
	if err != nil {
		return nil, fmt.Errorf("valuepred: %w", err)
	}
	return out, nil
}

// DecodeShardFile reads one shard artifact written by ShardFile.WriteJSON.
func DecodeShardFile(r io.Reader) (*ShardFile, error) {
	f, err := experiment.DecodeShardFile(r)
	if err != nil {
		return nil, fmt.Errorf("valuepred: %w", err)
	}
	return f, nil
}

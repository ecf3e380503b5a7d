// Package core is the top-level public API of the PageRank pipeline
// benchmark: a thin facade over the serve, pipeline, pagerank, dist and
// perfmodel packages that exposes everything a benchmark user needs from
// one import.
//
// Quick start — construct one long-lived Service and run pipelines
// through it:
//
//	svc := core.NewService()
//	defer svc.Close()
//	res, err := svc.Run(ctx, core.Config{Scale: 16, Seed: 1})
//	if err != nil { ... }
//	for _, k := range res.Kernels {
//		fmt.Printf("%v: %.3g edges/s\n", k.Kernel, k.EdgesPerSecond)
//	}
//
// The Service is the context-aware session API (DESIGN.md §8, §12): it
// bounds concurrent runs and memoizes each distinct (generator, scale,
// edgeFactor, seed) graph's staged artifacts — the raw edge list, the
// kernel-1 sorted list and the kernel-2 filtered, normalized matrix —
// computing each exactly once however many concurrent runs ask for it,
// so a warm svc.Run executes kernel 3 only.  It streams per-kernel,
// per-iteration and cache-hit/miss progress (svc.RunStream) and aborts
// mid-kernel on context cancellation.  RunOnce is the one-shot for
// throwaway calls; prefer the Service anywhere more than one run
// happens.
//
// The benchmark follows the IPDPS 2016 proposal "PageRank Pipeline
// Benchmark" (Dreher, Byun, Hill, Gadepally, Kuszmaul, Kepner): kernel 0
// generates a Graph500 Kronecker graph and writes it to tab-separated
// files; kernel 1 sorts the edges by start vertex; kernel 2 builds,
// filters and normalizes the sparse adjacency matrix; kernel 3 runs 20
// iterations of PageRank.  Kernels 1–3 report edges per second (20·M for
// kernel 3).
package core

import (
	"context"

	"repro/internal/dist"
	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/vfs"
)

// Config parameterizes a benchmark run.  See pipeline.Config.
type Config = pipeline.Config

// Result is the outcome of a benchmark run.  See pipeline.Result.
type Result = pipeline.Result

// KernelResult is one kernel's timing record.
type KernelResult = pipeline.KernelResult

// Kernel identifies a pipeline stage (K0Generate … K3PageRank).
type Kernel = pipeline.Kernel

// The four kernels.
const (
	K0Generate = pipeline.K0Generate
	K1Sort     = pipeline.K1Sort
	K2Filter   = pipeline.K2Filter
	K3PageRank = pipeline.K3PageRank
)

// Generator kinds for Config.Generator.
const (
	GenKronecker = pipeline.GenKronecker
	GenPPL       = pipeline.GenPPL
	GenER        = pipeline.GenER
)

// PageRankOptions configures kernel 3.  See pagerank.Options.
type PageRankOptions = pagerank.Options

// ---------------------------------------------------------------------------
// The Service session API (internal/serve; DESIGN.md §8)

// Service is the long-lived run coordinator: bounded concurrent runs, a
// shared singleflight generator cache, context cancellation and
// streaming progress.  See serve.Service.
type Service = serve.Service

// ServiceOption configures NewService.
type ServiceOption = serve.Option

// RunOption configures one Service.Run or Service.RunStream call.
type RunOption = serve.RunOption

// GraphKey is the staged artifact cache's graph identity: two runs
// agreeing on its fields draw from the same cached artifacts.
type GraphKey = serve.GraphKey

// ServiceStats is a snapshot of a Service's run and cache counters.
type ServiceStats = serve.Stats

// StageStats is one staged-cache level's counters within ServiceStats.
type StageStats = serve.StageStats

// CacheStats is a run's per-stage cache record (Result.Cache).
type CacheStats = pipeline.CacheStats

// StageCacheStats is one stage's hit/miss record within CacheStats.
type StageCacheStats = pipeline.StageCacheStats

// Event is one observation of a streaming run (Service.RunStream).
type Event = serve.Event

// The streaming event kinds.
const (
	EventRunStarted         = serve.EventRunStarted
	EventKernelStart        = serve.EventKernelStart
	EventKernelEnd          = serve.EventKernelEnd
	EventIteration          = serve.EventIteration
	EventRunEnd             = serve.EventRunEnd
	EventCheckpointSaved    = serve.EventCheckpointSaved
	EventCheckpointRestored = serve.EventCheckpointRestored
	EventCacheHit           = serve.EventCacheHit
	EventCacheMiss          = serve.EventCacheMiss
)

// NewService constructs the long-lived Service.  The default admits
// GOMAXPROCS concurrent runs and caches up to 8 generated graphs.
func NewService(opts ...ServiceOption) *Service { return serve.New(opts...) }

// WithMaxConcurrent bounds the Service's concurrently executing runs.
func WithMaxConcurrent(n int) ServiceOption { return serve.WithMaxConcurrent(n) }

// WithCacheBudget bounds the Service's staged artifact cache to the
// given number of resident bytes across all stages, LRU-evicted with
// artifacts charged at their real footprint (<= 0 disables it).
func WithCacheBudget(bytes int64) ServiceOption { return serve.WithCacheBudget(bytes) }

// WithKernels restricts a Service run to the listed kernels.
func WithKernels(ks ...Kernel) RunOption { return serve.WithKernels(ks...) }

// WithResumeKey checkpoints the run's distributed kernel 3 under key in
// the Service's checkpoint storage and resumes from the newest complete
// epoch there — rerun an interrupted configuration under the same key
// to continue it.  See serve.WithResumeKey.
func WithResumeKey(key string) RunOption { return serve.WithResumeKey(key) }

// WithCheckpointStorage sets the storage resume-keyed runs checkpoint
// to (default: an in-memory store living as long as the Service).
func WithCheckpointStorage(fs vfs.FS) ServiceOption { return serve.WithCheckpointStorage(fs) }

// PipelineEvent is the synchronous in-run progress observation delivered
// to WithProgress callbacks (RunStream is its channel-shaped form).
type PipelineEvent = pipeline.Event

// The pipeline-level event kinds.
const (
	EventPipelineKernelStart        = pipeline.EventKernelStart
	EventPipelineKernelEnd          = pipeline.EventKernelEnd
	EventPipelineIteration          = pipeline.EventIteration
	EventPipelineCheckpointSaved    = pipeline.EventCheckpointSaved
	EventPipelineCheckpointRestored = pipeline.EventCheckpointRestored
	EventPipelineCacheHit           = pipeline.EventCacheHit
	EventPipelineCacheMiss          = pipeline.EventCacheMiss
)

// CheckpointSpec configures epoch checkpoint/restart of the distributed
// kernel 3 (Config.Checkpoint).  See dist.CheckpointSpec.
type CheckpointSpec = dist.CheckpointSpec

// CheckpointStats is a run's checkpoint/restart record
// (Result.Checkpoint).  See dist.CheckpointStats.
type CheckpointStats = dist.CheckpointStats

// FaultPlan injects a rank failure into the distributed kernel 3
// (Config.Fault) — the chaos suites' instrument.  See dist.FaultPlan.
type FaultPlan = dist.FaultPlan

// ErrFaultInjected is the failure a FaultPlan's killed rank reports.
var ErrFaultInjected = dist.ErrFaultInjected

// WithProgress attaches a synchronous observer to a Service run.
func WithProgress(fn func(PipelineEvent)) RunOption { return serve.WithProgress(fn) }

// RunOnce executes one pipeline through a throwaway Service — the
// context-aware one-shot for CLIs and scripts that run a single
// pipeline and exit (cache off: there is nothing to share).  An empty
// kernel list means all four.
func RunOnce(ctx context.Context, cfg Config, ks ...Kernel) (*Result, error) {
	svc := NewService(WithCacheBudget(0))
	defer svc.Close()
	var opts []RunOption
	if len(ks) > 0 {
		opts = append(opts, WithKernels(ks...))
	}
	return svc.Run(ctx, cfg, opts...)
}

// Variants lists the registered implementation variants.
func Variants() []string { return pipeline.VariantNames() }

// Formats lists the registered edge-file codec names accepted by
// Config.Format ("tsv", "naivetsv", "bin", "packed").
func Formats() []string { return fastio.CodecNames() }

// DefaultFormat reports the edge-file format a variant uses when
// Config.Format is empty (the paper-faithful text default).
func DefaultFormat(variant string) string { return pipeline.DefaultFormat(variant) }

// NewMemFS returns an in-memory storage backend for Config.FS.
func NewMemFS() *vfs.Mem { return vfs.NewMem() }

// NewDirFS returns a directory-rooted storage backend for Config.FS.
func NewDirFS(root string) (*vfs.Dir, error) { return vfs.NewDir(root) }

// SizeTable computes the paper's Table II rows.
func SizeTable(scales []int, edgeFactor, bytesPerEdge int) []pipeline.SizeRow {
	return pipeline.SizeTable(scales, edgeFactor, bytesPerEdge)
}

// PaperScales are the scales of the paper's evaluation (16–22).
var PaperScales = pipeline.PaperScales

// ExecMode selects how the distributed runtime executes its ranks: one
// at a time (the simulation), as concurrent goroutines, or as worker
// processes over real sockets.
type ExecMode = dist.ExecMode

// The distributed execution modes.
const (
	ExecSim       = dist.ExecSim
	ExecGoroutine = dist.ExecGoroutine
	ExecSocket    = dist.ExecSocket
)

// DistConfig is the distributed runtime's full configuration: execution
// mode plus the hybrid intra-rank worker count.  See dist.Config.
type DistConfig = dist.Config

// PredictKernels returns the hardware-model predictions for all four
// kernels on the paper's test platform.
func PredictKernels(scale int) [4]perfmodel.Prediction {
	return perfmodel.All(perfmodel.PaperNode(), perfmodel.Workload{Scale: scale})
}

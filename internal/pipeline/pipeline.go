package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/gensuite"
	"repro/internal/graphblas"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

// Kernel identifies one pipeline stage.
type Kernel int

// The four kernels of the benchmark.
const (
	K0Generate Kernel = iota
	K1Sort
	K2Filter
	K3PageRank
	numKernels
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case K0Generate:
		return "kernel0-generate"
	case K1Sort:
		return "kernel1-sort"
	case K2Filter:
		return "kernel2-filter"
	case K3PageRank:
		return "kernel3-pagerank"
	default:
		return fmt.Sprintf("kernel?(%d)", int(k))
	}
}

// GeneratorKind selects the kernel-0 graph generator.
type GeneratorKind string

// Supported generators.
const (
	GenKronecker GeneratorKind = "kronecker" // Graph500 (the benchmark default)
	GenPPL       GeneratorKind = "ppl"       // deterministic perfect power law
	GenER        GeneratorKind = "er"        // Erdős–Rényi control
)

// Config parameterizes a benchmark run.
type Config struct {
	// Scale is the Graph500 scale factor S (N = 2^S vertices).
	Scale int
	// EdgeFactor is the average edges per vertex; zero selects 16.
	EdgeFactor int
	// Seed selects all random streams.
	Seed uint64
	// NFiles is the paper's free parameter, the number of edge files
	// written by K0 and K1; zero selects 1.
	NFiles int
	// FS is the non-volatile storage the kernels write to; nil selects an
	// in-memory store.
	FS vfs.FS
	// Variant names the implementation variant; empty selects "csr".
	Variant string
	// Format names the kernel-0/1 edge-file codec: "tsv" (the paper's
	// text format), "naivetsv", "bin", or "packed".  Empty keeps the
	// variant's paper-faithful default (tsv; the naive coo variant uses
	// naivetsv).  Results are bit-for-bit invariant in it — only encoded
	// bytes and kernel-0/1 throughput change.  The out-of-core sorters'
	// spill runs follow it too: "packed" spills packed runs, every other
	// format spills the fixed-width binary record.
	Format string
	// Generator selects the K0 generator; empty selects Kronecker.
	Generator GeneratorKind
	// Workers bounds goroutines in parallel variants; <= 0 means default.
	Workers int
	// RunEdges is the out-of-core variants' in-memory run size in edges —
	// extsort's external-merge buffer and distext's per-rank run buffer.
	// Zero selects each variant's default.
	RunEdges int
	// SortEndVertices makes K1 sort by (u, v) instead of u only — the
	// paper's "should the end vertices also be sorted?" open question.
	SortEndVertices bool
	// DistMode overrides the execution mode of the dist/distgo variants'
	// runtime: "sim" (ranks run one at a time), "goroutine"
	// (concurrent ranks with real message passing) or "socket" (worker
	// processes over unix-domain sockets).  Empty keeps the selected
	// variant's default.
	DistMode string
	// RankWorkers is the hybrid intra-rank worker count of the dist
	// variants' runtime (dist.Config.Workers): each rank's local kernel-3
	// product and kernel-1 partitioning run on this many goroutines.
	// Results are bit-for-bit invariant in it; <= 1 keeps ranks serial.
	RankWorkers int
	// Checkpoint configures epoch checkpoint/restart of the distributed
	// kernel 3 (dist.CheckpointSpec semantics: FS enables it, Resume
	// restarts from the newest complete epoch).  Only the variants with a
	// distributed kernel 3 — dist, distgo, distext — accept it.  The
	// spec's OnCommit/OnResume hooks compose with Progress: the runner
	// also emits EventCheckpointSaved/EventCheckpointRestored.
	Checkpoint dist.CheckpointSpec
	// Fault, when non-nil, injects a rank failure into the distributed
	// kernel 3 (dist.FaultPlan) — the chaos suites' instrument.  Like the
	// dist layer's, it describes one injection: clear it on the restarted
	// run.
	Fault *dist.FaultPlan
	// PageRank carries K3 options (damping, iterations, dangling).
	PageRank pagerank.Options
	// KeepRank retains the final rank vector in the Result.
	KeepRank bool
	// MeterIO wraps the storage in a byte-counting layer and records each
	// kernel's read/write volume in its KernelResult.
	MeterIO bool
	// Source, when non-nil, replaces the kernel-0 generator invocation:
	// variants obtain the edge list from it instead of generating.  It
	// reports whether the list came from a cache (metered in the
	// Result's Cache.Edges) and MUST return a list the caller treats as
	// read-only — kernel 0 only writes it to storage, never mutates it,
	// which is what lets the service layer share one list across
	// concurrent runs.  The hook sees the defaulted Config.
	Source func(Config) (*edge.List, bool, error)
	// SortedSource, when non-nil, lets the run exchange the kernel-1
	// sorted edge list with an external staged cache.  The runner
	// consults it once before the kernels start (when both K1 and K2
	// are scheduled and the variant participates — see CacheTraits): a
	// hit skips kernels 0 and 1 entirely and kernel 2 consumes the
	// shared read-only list; a miss obligates the run to deposit its
	// own kernel-1 output through the lease's Fill.  The hook sees the
	// defaulted Config with SortEndVertices reflecting the variant's
	// effective kernel-1 order (the columnar variant always sorts by
	// (u, v)).  Interactions are metered in the Result's Cache record.
	SortedSource func(Config) (SortedLease, error)
	// MatrixSource is SortedSource's kernel-2 analogue: the deepest
	// cache level, holding the filtered, normalized matrix.  A hit
	// skips kernels 0–2 — a warm full-pipeline run performs only
	// kernel 3 (the dist variants row-block the cached matrix across
	// their ranks instead of recomputing it).  The kernel-2 matrix is
	// canonical — column-sorted rows, duplicate edges accumulated —
	// so it is bit-identical across all variants and safe to exchange
	// between them.
	MatrixSource func(Config) (MatrixLease, error)
	// FabricSource, when non-nil, lends the dist variants' socket-mode
	// kernel 3 an open worker fabric of procs ranks in place of one
	// spawned and torn down inside the kernel.  Together with a
	// matrix-stage hit's MatrixLease.ID it makes a warm socket run the
	// iteration's collectives and nothing else: the lender keeps the
	// workers, and the row blocks they hold, alive between runs.  The
	// call may wait for another run to return the fabric.
	FabricSource func(procs int) (FabricLease, error)
	// Progress, when non-nil, receives execution events: kernel start
	// and end, and one event per kernel-3 iteration.  Callbacks run
	// synchronously on the executing goroutine (rank 0's, for the dist
	// variants) and must be fast; the service layer's RunStream is built
	// on this hook.
	Progress func(Event)
}

func (c Config) withDefaults() Config {
	if c.EdgeFactor == 0 {
		c.EdgeFactor = kronecker.DefaultEdgeFactor
	}
	if c.NFiles == 0 {
		c.NFiles = 1
	}
	if c.FS == nil {
		c.FS = vfs.NewMem()
	}
	if c.Variant == "" {
		c.Variant = "csr"
	}
	if c.Generator == "" {
		c.Generator = GenKronecker
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if cc.Scale < 1 || cc.Scale > kronecker.MaxScale {
		return fmt.Errorf("pipeline: scale %d out of range [1, %d]", cc.Scale, kronecker.MaxScale)
	}
	if cc.NFiles < 1 {
		return fmt.Errorf("pipeline: NFiles %d, want >= 1", cc.NFiles)
	}
	if _, ok := registry[cc.Variant]; !ok {
		return fmt.Errorf("pipeline: unknown variant %q (have %v)", cc.Variant, VariantNames())
	}
	if cc.Format != "" {
		if _, err := fastio.CodecByName(cc.Format); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	switch cc.Generator {
	case GenKronecker, GenPPL, GenER:
	default:
		return fmt.Errorf("pipeline: unknown generator %q", cc.Generator)
	}
	if _, err := dist.ParseExecMode(cc.DistMode); err != nil {
		return err
	}
	if cc.Checkpoint.FS != nil || cc.Fault != nil {
		if _, ok := registry[cc.Variant].(interface{ distCfg(*Run) dist.Config }); !ok {
			return fmt.Errorf("pipeline: checkpoint/fault configured, but variant %q has no distributed kernel 3", cc.Variant)
		}
	}
	return cc.PageRank.Validate()
}

// N returns the vertex count 2^Scale.
func (c Config) N() uint64 { return 1 << uint(c.Scale) }

// M returns the edge count EdgeFactor·2^Scale.
func (c Config) M() uint64 { return uint64(c.withDefaults().EdgeFactor) << uint(c.Scale) }

// EventKind classifies a Progress event.
type EventKind int

const (
	// EventKernelStart fires immediately before a kernel executes.
	EventKernelStart EventKind = iota
	// EventKernelEnd fires after a kernel completes, carrying its
	// KernelResult.
	EventKernelEnd
	// EventIteration fires after each completed kernel-3 PageRank
	// iteration, carrying the 1-based iteration count.
	EventIteration
	// EventCheckpointSaved fires after the distributed kernel 3 commits
	// an epoch, carrying the epoch's completed-iteration count in
	// Iteration.
	EventCheckpointSaved
	// EventCheckpointRestored fires when a resuming kernel 3 loads a
	// complete epoch before iterating, carrying the epoch's completed-
	// iteration count in Iteration.
	EventCheckpointRestored
	// EventCacheHit fires when an external staged-cache source
	// (Config.Source / SortedSource / MatrixSource) serves an artifact.
	// Kernel identifies the artifact's producing stage (K0Generate for
	// the raw edge list, K1Sort for the sorted list, K2Filter for the
	// filtered matrix); the producing kernels are skipped, so they emit
	// no start/end events of their own.
	EventCacheHit
	// EventCacheMiss fires when a staged-cache source was consulted but
	// held no resident artifact: this run computes the artifact and
	// deposits it.  Kernel identifies the artifact's producing stage.
	EventCacheMiss
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventKernelStart:
		return "kernel-start"
	case EventKernelEnd:
		return "kernel-end"
	case EventIteration:
		return "iteration"
	case EventCheckpointSaved:
		return "checkpoint-saved"
	case EventCheckpointRestored:
		return "checkpoint-restored"
	case EventCacheHit:
		return "cache-hit"
	case EventCacheMiss:
		return "cache-miss"
	default:
		return fmt.Sprintf("event?(%d)", int(k))
	}
}

// Event is one Progress observation of a running pipeline.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Kernel is the stage the event belongs to.
	Kernel Kernel
	// Iteration is the 1-based kernel-3 iteration (EventIteration only).
	Iteration int
	// KernelResult is the completed stage's record (EventKernelEnd only).
	KernelResult *KernelResult
}

// StageCacheStats records one staged-cache level's interaction for a
// single run.  A run scores at most one hit or one miss per consulted
// stage.
type StageCacheStats struct {
	// Hits counts artifacts served from the cache.
	Hits uint64
	// Misses counts artifacts this run had to compute (and deposited).
	Misses uint64
}

// CacheStats records a run's per-stage interaction with an external
// staged artifact cache (Config.Source, SortedSource, MatrixSource).
// A hit at a deeper stage short-circuits the shallower ones: a run that
// hit the matrix stage never consulted the sorted or edges stages, so
// their counters stay zero.
type CacheStats struct {
	// Edges is the raw kernel-0 edge-list stage (Config.Source).
	Edges StageCacheStats
	// Sorted is the kernel-1 sorted edge-list stage (SortedSource).
	Sorted StageCacheStats
	// Matrix is the kernel-2 filtered-matrix stage (MatrixSource).
	Matrix StageCacheStats
}

// SortedLease is one SortedSource transaction.  On a hit, List carries
// the shared kernel-1 artifact — read-only, like a sourced kernel-0
// list; mutating consumers must copy.  On a miss, Fill is non-nil and
// the runner MUST invoke it exactly once: with the run's own kernel-1
// output on success, or with the failure (a cancelled or failed fill
// is delivered to concurrent waiters and never cached, so the key is
// not poisoned).
type SortedLease struct {
	// List is the cached sorted edge list (hits only).
	List *edge.List
	// Hit reports whether List was served from the cache.
	Hit bool
	// Fill deposits the artifact or the failure (misses only).
	Fill func(l *edge.List, err error)
}

// MatrixLease is one MatrixSource transaction, with the same hit/fill
// contract as SortedLease.  Mass carries the pre-filter matrix mass
// (Result.MatrixMass) alongside the matrix so a warm run's Result is
// complete without re-deriving it.
type MatrixLease struct {
	// Matrix is the cached filtered, normalized matrix (hits only).
	Matrix *sparse.CSR
	// Mass is sum(A) before filtering, recorded at fill time.
	Mass float64
	// Hit reports whether Matrix was served from the cache.
	Hit bool
	// Fill deposits the artifact or the failure (misses only).
	Fill func(m *sparse.CSR, mass float64, err error)
	// ID names the cached artifact across runs — on a hit the one
	// served, on a miss the one Fill is about to deposit — or is empty
	// when the source has no stable identity to offer.  Equal IDs mean
	// the same matrix bits, and a refilled key gets a new one.  The dist
	// variants pass it to a lent fabric as the resident operand's name.
	ID string
	// Transposed, when non-nil (hits only), returns the artifact's
	// length-ordered transpose — kernel 3's gather operand — built at
	// most once per cached artifact and shared read-only like the matrix
	// itself.
	Transposed func() *sparse.Ordered
}

// FabricLease is one FabricSource transaction: exclusive use of an open
// socket fabric for one kernel 3.
type FabricLease struct {
	// Session is the lent fabric.
	Session *dist.Session
	// Release returns it, with the kernel's error: after a failed,
	// cancelled or fault-injected run the lender discards the fabric
	// instead of lending it again.  It must be called exactly once.
	Release func(err error)
}

// CacheTraits declares a variant's staged-cache participation.  A
// variant that does not implement the optional interface
//
//	interface{ CacheTraits() CacheTraits }
//
// participates fully with the default kernel-1 order.  The extsort
// variant opts out of the list stages (its kernel 0 streams in bounded
// memory; no resident list exists to exchange) but shares the
// canonical kernel-2 matrix; the parallel variant opts out of every
// stage — its jump-stream generation draws a different edge multiset
// per worker count, so its artifacts do not have GraphKey's identity.
type CacheTraits struct {
	// SortedArtifact reports kernels 1 and 2 exchange the sorted edge
	// list with Config.SortedSource.
	SortedArtifact bool
	// SortsByUV reports kernel 1 always produces the full (u, v) order
	// regardless of Config.SortEndVertices (the columnar variant), so
	// its sorted artifact is keyed accordingly.
	SortsByUV bool
	// MatrixArtifact reports kernel 2's output can be exchanged with
	// Config.MatrixSource.
	MatrixArtifact bool
}

// cacheTraitser is the optional Variant interface declaring traits.
type cacheTraitser interface{ CacheTraits() CacheTraits }

// traitsOf resolves a variant's cache traits, defaulting to full
// participation.
func traitsOf(v Variant) CacheTraits {
	if t, ok := v.(cacheTraitser); ok {
		return t.CacheTraits()
	}
	return CacheTraits{SortedArtifact: true, MatrixArtifact: true}
}

// KernelResult is the timing record for one kernel.
type KernelResult struct {
	// Kernel identifies the stage.
	Kernel Kernel
	// Seconds is the wall-clock duration of the stage.
	Seconds float64
	// Edges is the edge count the rate is defined over (M, or 20·M for K3).
	Edges uint64
	// EdgesPerSecond is Edges / Seconds, the paper's reported metric.
	EdgesPerSecond float64
	// Allocs is the number of heap allocations performed during the
	// stage (runtime mallocs, whole process) — the perf-trajectory
	// counter prbench -json records so allocation regressions in any
	// kernel are visible between PRs.
	Allocs uint64
	// AllocBytes is the heap volume those allocations requested
	// (MemStats.TotalAlloc delta): every byte of it is cleared or first
	// touched once before the kernel writes it, which on the cold path is
	// time no other counter names.
	AllocBytes uint64
	// IO holds the kernel's storage traffic when Config.MeterIO is set.
	IO *vfs.IOStats
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Config echoes the (defaulted) configuration that ran.
	Config Config
	// Kernels holds one entry per executed kernel, in order.
	Kernels []KernelResult
	// NNZ is the filtered matrix's stored-entry count after K2.
	NNZ int
	// MatrixMass is sum(A) after construction, before filtering (== M).
	MatrixMass float64
	// Rank is the final rank vector (only when Config.KeepRank).
	Rank []float64
	// RankIterations is the number of PageRank iterations performed.
	RankIterations int
	// Comm is the total communication record of the run's distributed
	// collectives (dist variants only; nil otherwise).
	Comm *dist.CommStats
	// Checkpoint is the distributed kernel 3's checkpoint/restart record
	// (checkpointed or resumed dist-variant runs only; nil otherwise).
	Checkpoint *dist.CheckpointStats
	// Spill is the out-of-core kernel 1's run-file record (extsort and
	// distext variants only; nil otherwise).
	Spill *SpillStats
	// Cache is the run's per-stage staged-cache record — non-nil only
	// when a cache seam (Config.Source, SortedSource, MatrixSource)
	// was actually consulted.
	Cache *CacheStats
}

// KernelResultFor returns the result for kernel k, or nil.
func (r *Result) KernelResultFor(k Kernel) *KernelResult {
	for i := range r.Kernels {
		if r.Kernels[i].Kernel == k {
			return &r.Kernels[i]
		}
	}
	return nil
}

// Run carries the mutable state a variant threads through the kernels.
type Run struct {
	// Cfg is the defaulted configuration.
	Cfg Config
	// FS is the storage kernels read and write.
	FS vfs.FS
	// Matrix receives the filtered, normalized adjacency matrix at the
	// end of K2 (all variants converge to CSR for cross-validation; the
	// graphblas variant also keeps its generic form internally).
	Matrix *sparse.CSR
	// MatrixID is the staged cache's MatrixLease.ID of Matrix, set once
	// Matrix is the cached artifact (served by a hit, or deposited by
	// this run's fill); MatrixT is a hit's Transposed.  Kernel-3
	// implementations read the transpose through Transposed().
	MatrixID string
	MatrixT  func() *sparse.Ordered
	// GB optionally holds the graphblas variant's generic matrix between
	// K2 and K3.
	GB *graphblas.Matrix[float64]
	// Rank receives the K3 result.
	Rank *pagerank.Result
	// MatrixMass is sum(A) recorded during K2 before filtering.
	MatrixMass float64
	// Comm accumulates the distributed collectives' communication record
	// across kernels (dist variants call AddComm; nil for serial variants).
	Comm *dist.CommStats
	// Checkpoint receives the distributed kernel 3's checkpoint/restart
	// record when Cfg.Checkpoint or Cfg.Fault is in play.
	Checkpoint *dist.CheckpointStats
	// Spill records the out-of-core kernel 1's run-file traffic (extsort
	// and distext variants; nil for in-memory sorts).
	Spill *SpillStats
	// Cache records the staged-cache interaction when any of the cache
	// seams is set (filled by the runner and sourceEdges).
	Cache *CacheStats
	// SortedIn is the cache-shared kernel-1 artifact serving as kernel
	// 2's input when the sorted stage hit.  It is read-only; kernel-2
	// implementations route through sortedEdges/sortedEdgesMutable.
	SortedIn *edge.List
	// SortedOut is the kernel-1 output a participating variant records:
	// a list the run decoded or sorted into itself, never a shared one.
	// The runner takes it when kernel 1 returns — into the cache on a
	// sorted-stage miss, else as the run's spare list.
	SortedOut *edge.List
	// spare is an edge list this run owns — generated by its kernel 0,
	// recorded by its kernel 1, or that kernel's sort list (aux) — and has
	// finished reading: the next kernel decodes its input into it
	// (readEdges) instead of allocating and first-touching a list of the
	// same size, and the runner drops it when that kernel returns.  A list
	// that came from Cfg.Source or SortedIn, or went to a cache fill, is
	// shared with other runs and is never a spare (DESIGN.md §12).
	spare, aux *edge.List
	// ctx is the run's cancellation context; nil means background.
	// Variants read it through Context().
	ctx context.Context
}

// stageStats returns the run's cache record, allocating it on first use.
func (r *Run) stageStats() *CacheStats {
	if r.Cache == nil {
		r.Cache = &CacheStats{}
	}
	return r.Cache
}

// Transposed returns Matrixᵀ, length-ordered, for the gather engines: the
// staged cache's shared copy on a matrix-stage hit, a fresh one
// otherwise.  Read-only.
func (r *Run) Transposed() *sparse.Ordered {
	if r.MatrixT != nil {
		return r.MatrixT()
	}
	return r.Matrix.TransposeOrdered()
}

// Context returns the run's cancellation context.  Variants thread it
// into the distributed runtime and the kernel-3 engines; a Run built
// without one (the legacy composition path, e.g. the checkpoint example)
// gets context.Background.
func (r *Run) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// AddComm folds a kernel's communication record into the run's total.
func (r *Run) AddComm(st dist.CommStats) {
	if r.Comm == nil {
		r.Comm = &dist.CommStats{}
	}
	r.Comm.Add(st)
}

// DefaultFormat returns a variant's paper-faithful default codec name
// for its kernel-0/1 edge files: naivetsv for the naive coo variant
// (whose string handling is the point), tsv everywhere else.
func DefaultFormat(variant string) string {
	if variant == "coo" {
		return "naivetsv"
	}
	return "tsv"
}

// FormatName resolves the codec name cfg's run uses for its kernel-0/1
// edge files: Config.Format when set, else the variant's default.
func FormatName(cfg Config) string {
	if cfg.Format != "" {
		return cfg.Format
	}
	return DefaultFormat(cfg.withDefaults().Variant)
}

// Codec resolves the run's edge-file codec — FormatName of the run's
// configuration.  Every variant kernel that touches the k0/k1 files
// routes through it, which is what makes Config.Format a single switch.
func (r *Run) Codec() fastio.Codec {
	c, err := fastio.CodecByName(FormatName(r.Cfg))
	if err != nil {
		// Unreachable: Validate checked Format before the run began.
		panic(err)
	}
	return c
}

// SpillCodec resolves the out-of-core sorters' run-file codec: Packed
// when the run's format is packed (sorted runs are its best case), else
// the fixed-width Binary record, whose 16 B/edge keeps spill accounting
// exact and bit-for-bit invariant across the other formats.
func (r *Run) SpillCodec() fastio.Codec {
	if r.Cfg.Format == "packed" {
		return fastio.Packed{}
	}
	return fastio.Binary{}
}

// SpillStats records an out-of-core kernel 1's run-file traffic: which
// codec encoded the spilled runs and how many encoded bytes moved, so a
// cheaper spill codec is a measured reduction, not an assertion.
type SpillStats struct {
	// Codec names the spill-run codec ("bin" or "packed").
	Codec string
	// Runs is the number of sorted runs formed (summed over ranks for
	// the distributed sorter).
	Runs int
	// BytesWritten and BytesRead are the run files' encoded bytes: the
	// spill during run formation and the read-back during the merge.
	BytesWritten int64
	BytesRead    int64
}

// Variant implements the four kernels.  Kernels communicate only through
// r.FS (K0→K1→K2) and r.Matrix (K2→K3), so kernels of different variants
// compose — the pipeline runner exploits this in mix-and-match ablations.
type Variant interface {
	// Name is the registry key.
	Name() string
	// Description is a one-line summary for reports.
	Description() string
	// Kernel0 generates the graph and writes edge files under prefix "k0".
	Kernel0(r *Run) error
	// Kernel1 reads "k0" files, sorts by start vertex, writes "k1" files.
	Kernel1(r *Run) error
	// Kernel2 reads "k1" files and produces the filtered normalized matrix.
	Kernel2(r *Run) error
	// Kernel3 runs PageRank on r.Matrix, filling r.Rank.
	Kernel3(r *Run) error
}

// ---------------------------------------------------------------------------
// Registry

var registry = map[string]Variant{}

// Register adds a variant; it panics on duplicates (registration happens in
// package init functions).
func Register(v Variant) {
	if _, dup := registry[v.Name()]; dup {
		panic(fmt.Sprintf("pipeline: duplicate variant %q", v.Name()))
	}
	registry[v.Name()] = v
}

// Lookup returns the named variant.
func Lookup(name string) (Variant, error) {
	v, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown variant %q (have %v)", name, VariantNames())
	}
	return v, nil
}

// VariantNames returns all registered variant names, sorted.
func VariantNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Execution

// ExecuteContext runs the full four-kernel pipeline under cfg and ctx and
// returns timing results for every kernel.
func ExecuteContext(ctx context.Context, cfg Config) (*Result, error) {
	return ExecuteKernelsContext(ctx, cfg, []Kernel{K0Generate, K1Sort, K2Filter, K3PageRank})
}

// ExecuteKernelsContext runs the listed kernels in order under ctx.
// Kernels may be run independently as the paper allows, but each depends
// on its predecessor's artifacts: running K2 without K1 in the same FS
// fails with a missing-file error.  Cancellation aborts before the next
// kernel starts, and mid-kernel at the kernels' own cancellation points —
// the K3 engines check between iterations and the distributed runtime
// wherever a rank waits on a peer — returning ctx's error.  A background
// context changes no result.
func ExecuteKernelsContext(ctx context.Context, cfg Config, kernels []Kernel) (res *Result, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	v := registry[cfg.Variant]
	var meter *vfs.Metered
	if cfg.MeterIO {
		meter = vfs.NewMetered(cfg.FS)
		cfg.FS = meter
	}
	run := &Run{Cfg: cfg, FS: cfg.FS, ctx: ctx}
	scheduled := func(k Kernel) bool {
		for _, kk := range kernels {
			if kk == k {
				return true
			}
		}
		return false
	}
	// Staged-cache negotiation happens up front, deepest stage first
	// (matrix, then sorted; the edges stage is consulted inside kernel 0
	// by sourceEdges).  A hit marks the artifact's producing kernels
	// skipped; a miss leaves this run a fill obligation it discharges
	// when the producing kernel completes — or with the run's error,
	// which concurrent waiters receive and retry past, so a cancelled
	// fill never poisons the key.  The uniform matrix→sorted→edges
	// acquisition order is what keeps concurrent same-key runs free of
	// wait cycles: a run waiting to join stage s holds obligations only
	// for stages consulted before s, and the filler it waits on can
	// itself only be waiting at a stage consulted after s.
	traits := traitsOf(v)
	var skip [numKernels]bool
	var sortedFill func(*edge.List, error)
	var matrixFill func(*sparse.CSR, float64, error)
	var matrixFillID string
	defer func() {
		// Discharge unfulfilled obligations on every exit path so
		// waiters are never stranded.
		if matrixFill != nil {
			matrixFill(nil, 0, fillAbortErr(err))
		}
		if sortedFill != nil {
			sortedFill(nil, fillAbortErr(err))
		}
	}()
	emitCache := func(k Kernel, hit bool) {
		if cfg.Progress == nil {
			return
		}
		kind := EventCacheMiss
		if hit {
			kind = EventCacheHit
		}
		cfg.Progress(Event{Kind: kind, Kernel: k})
	}
	if cfg.MatrixSource != nil && traits.MatrixArtifact && scheduled(K2Filter) {
		lease, lerr := cfg.MatrixSource(cfg)
		if lerr != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("pipeline: matrix source: %w", lerr)
		}
		if lease.Hit {
			run.stageStats().Matrix.Hits++
			run.Matrix = lease.Matrix
			run.MatrixMass = lease.Mass
			run.MatrixID, run.MatrixT = lease.ID, lease.Transposed
			skip[K0Generate], skip[K1Sort], skip[K2Filter] = true, true, true
		} else {
			run.stageStats().Matrix.Misses++
			matrixFill, matrixFillID = lease.Fill, lease.ID
		}
		emitCache(K2Filter, lease.Hit)
	}
	if !skip[K1Sort] && cfg.SortedSource != nil && traits.SortedArtifact &&
		scheduled(K1Sort) && scheduled(K2Filter) {
		scfg := cfg
		scfg.SortEndVertices = cfg.SortEndVertices || traits.SortsByUV
		lease, lerr := cfg.SortedSource(scfg)
		if lerr != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("pipeline: sorted source: %w", lerr)
		}
		if lease.Hit {
			run.stageStats().Sorted.Hits++
			run.SortedIn = lease.List
			skip[K0Generate], skip[K1Sort] = true, true
		} else {
			run.stageStats().Sorted.Misses++
			sortedFill = lease.Fill
		}
		emitCache(K1Sort, lease.Hit)
	}
	if cfg.Progress != nil {
		// The kernel-3 engines' per-iteration hook feeds the same
		// Progress stream as the kernel events below, composed with —
		// not replacing — any per-iteration hook the caller already put
		// in PageRank.Progress.  Only run.Cfg is amended; the caller's
		// options value is untouched.
		inner := cfg.PageRank.Progress
		run.Cfg.PageRank.Progress = func(it int) {
			if inner != nil {
				inner(it)
			}
			cfg.Progress(Event{Kind: EventIteration, Kernel: K3PageRank, Iteration: it})
		}
	}
	// The Result echoes the defaulted configuration minus the run's
	// closures: Source and Progress are plumbing inputs that capture the
	// caller's context and cache — retaining them in every Result would
	// keep those alive for the Result's lifetime.
	resCfg := cfg
	resCfg.Source = nil
	resCfg.SortedSource = nil
	resCfg.MatrixSource = nil
	resCfg.FabricSource = nil
	resCfg.Progress = nil
	resCfg.Checkpoint.OnCommit = nil
	resCfg.Checkpoint.OnResume = nil
	res = &Result{Config: resCfg}
	m := cfg.M()
	for _, k := range kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if k >= 0 && k < numKernels && skip[k] {
			// Served by a deeper cache stage: the artifact this kernel
			// would produce (and its storage writes) already exist.
			continue
		}
		var fn func(*Run) error
		edges := m
		switch k {
		case K0Generate:
			fn = v.Kernel0
		case K1Sort:
			fn = v.Kernel1
		case K2Filter:
			fn = v.Kernel2
		case K3PageRank:
			fn = v.Kernel3
			iters := cfg.PageRank.Iterations
			if iters == 0 {
				iters = pagerank.DefaultIterations
			}
			edges = m * uint64(iters)
		default:
			return nil, fmt.Errorf("pipeline: unknown kernel %v", k)
		}
		if cfg.Progress != nil {
			cfg.Progress(Event{Kind: EventKernelStart, Kernel: k})
		}
		var memBefore runtime.MemStats
		runtime.ReadMemStats(&memBefore)
		start := time.Now()
		if err := fn(run); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// Cancellation surfaces undecorated so callers can match
				// errors.Is(err, context.Canceled) without unwrapping the
				// kernel framing.
				return nil, cerr
			}
			return nil, fmt.Errorf("pipeline: %v (%s): %w", k, cfg.Variant, err)
		}
		// Discharge cache fill obligations as soon as the producing
		// kernel completes, so concurrent same-key waiters unblock
		// before this run's remaining kernels.
		if k == K1Sort {
			// The run's claim on kernel 1's lists ends here: its output
			// goes to the cache, which then owns it, or becomes the spare
			// kernel 2 decodes into — never both (DESIGN.md §12).
			run.spare = nil
			switch {
			case sortedFill == nil:
				run.spare = run.SortedOut
			case run.SortedOut != nil:
				sortedFill(run.SortedOut, nil)
				run.spare = run.aux
			default:
				sortedFill(nil, fmt.Errorf("pipeline: variant %q produced no sorted artifact", cfg.Variant))
			}
			sortedFill, run.SortedOut, run.aux = nil, nil, nil
		}
		if k == K2Filter {
			// Dead lists are dropped at the kernel boundary, not kept to
			// the end of the run and not left to liveness inside the
			// kernel.  Peak RSS follows GC pacing: the fewer bytes a run
			// allocates, the fewer cycles it triggers and the longer
			// garbage overlaps what comes next, so a list reachable past
			// its last reader now costs a cycle's worth of heap goal.  And
			// a list that merely *may* be found — the collector that
			// starts inside kernel 2 scans the interrupted frame
			// conservatively, and a stale register kept this one alive in
			// some runs and not in others — made peak RSS two-valued.
			run.spare = nil
		}
		if k == K2Filter && matrixFill != nil {
			if run.Matrix != nil {
				matrixFill(run.Matrix, run.MatrixMass, nil)
				run.MatrixID = matrixFillID
			} else {
				matrixFill(nil, 0, fmt.Errorf("pipeline: variant %q produced no matrix artifact", cfg.Variant))
			}
			matrixFill = nil
		}
		secs := time.Since(start).Seconds()
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		kr := KernelResult{Kernel: k, Seconds: secs, Edges: edges,
			Allocs: memAfter.Mallocs - memBefore.Mallocs, AllocBytes: memAfter.TotalAlloc - memBefore.TotalAlloc}
		if secs > 0 {
			kr.EdgesPerSecond = float64(edges) / secs
		}
		if meter != nil {
			io := meter.Reset()
			kr.IO = &io
		}
		res.Kernels = append(res.Kernels, kr)
		if cfg.Progress != nil {
			cfg.Progress(Event{Kind: EventKernelEnd, Kernel: k, KernelResult: &kr})
		}
	}
	if run.Matrix != nil {
		res.NNZ = run.Matrix.NNZ()
		res.MatrixMass = run.MatrixMass
	}
	if run.Rank != nil {
		res.RankIterations = run.Rank.Iterations
		if cfg.KeepRank {
			res.Rank = run.Rank.Rank
		}
	}
	res.Comm = run.Comm
	res.Checkpoint = run.Checkpoint
	res.Spill = run.Spill
	res.Cache = run.Cache
	return res, nil
}

// sourceEdges obtains kernel 0's edge list: from Cfg.Source when set —
// metering the hit/miss in the run's Cache.Edges record — else by invoking
// the configured generator.  Every variant's Kernel0 routes through it,
// which is the single seam the service layer's shared generator cache
// plugs into.  A sourced list is shared and read-only; callers only
// write it to storage.
func sourceEdges(r *Run) (*edge.List, error) {
	if r.Cfg.Source != nil {
		l, hit, err := r.Cfg.Source(r.Cfg)
		if err != nil {
			return nil, err
		}
		if hit {
			r.stageStats().Edges.Hits++
		} else {
			r.stageStats().Edges.Misses++
		}
		if r.Cfg.Progress != nil {
			kind := EventCacheMiss
			if hit {
				kind = EventCacheHit
			}
			r.Cfg.Progress(Event{Kind: kind, Kernel: K0Generate})
		}
		return l, nil
	}
	gen, err := generate(r.Cfg)
	if err != nil {
		return nil, err
	}
	return gen.Generate()
}

// writeSourcedEdges is kernel 0 of every variant that materializes the
// edge list: obtain it (sourceEdges) and write it to the "k0" stripes.  A
// list the run generated itself then becomes its spare; a sourced one is
// the cache's.
func writeSourcedEdges(r *Run) error {
	l, err := sourceEdges(r)
	if err != nil {
		return err
	}
	if err := fastio.WriteStriped(r.FS, "k0", r.Codec(), r.Cfg.NFiles, l); err != nil {
		return err
	}
	if r.Cfg.Source == nil {
		r.spare = l
	}
	return nil
}

// readEdges decodes the stripes of prefix ("k0" or "k1") into the run's
// spare list, or — the first kernel of a kernel subset, or every list so
// far went to the cache — into a new one, made once at the M edges a
// run's files hold (up to 2^30).  The run keeps its reference to a spare
// until the kernel returns (the runner drops it there).
func readEdges(r *Run, prefix string) (*edge.List, error) {
	dst := r.spare
	if dst == nil {
		dst = edge.NewList(int(min(r.Cfg.M(), 1<<30)))
	}
	return fastio.ReadStripedInto(r.FS, prefix, r.Codec(), dst)
}

// radixSort is kernel 1's sort in the radix variants.  The run keeps the
// sort's auxiliary list, its own and as long as l: should l go to the
// cache, it is what kernel 2 decodes into.
func radixSort(r *Run, l *edge.List, byUV bool) {
	r.aux = xsort.RadixInto(l, byUV, nil)
}

// fillAbortErr is the error an unfulfilled cache fill obligation is
// discharged with when the run exits before the producing kernel
// completed — the run's own error when it has one.
func fillAbortErr(err error) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("pipeline: run ended before the cached artifact was produced")
}

// sortedEdges obtains kernel 2's input: the cache-shared kernel-1
// artifact when the sorted stage hit (Run.SortedIn), else the k1 edge
// files.  A shared list is read-only; kernel-2 implementations that
// mutate their input route through sortedEdgesMutable instead.
func sortedEdges(r *Run) (*edge.List, error) {
	if r.SortedIn != nil {
		return r.SortedIn, nil
	}
	return readEdges(r, "k1")
}

// sortedEdgesMutable is sortedEdges for consumers that modify the list
// in place (the columnar kernel 2 filters its columns destructively):
// a cache-shared artifact is deep-copied so the resident copy stays
// pristine for other runs.
func sortedEdgesMutable(r *Run) (*edge.List, error) {
	if r.SortedIn != nil {
		return r.SortedIn.Clone(), nil
	}
	return readEdges(r, "k1")
}

// GenerateEdges invokes cfg's kernel-0 generator and returns the edge
// list without touching storage — the pure generation step the service
// layer's shared cache wraps.  Only Generator, Scale, EdgeFactor and Seed
// matter; the output is deterministic in them.
func GenerateEdges(cfg Config) (*edge.List, error) {
	gen, err := generate(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return gen.Generate()
}

// generate dispatches to the configured K0 generator, shared by variants.
func generate(cfg Config) (gen gensuite.Generator, err error) {
	switch cfg.Generator {
	case GenKronecker:
		return kroneckerGen{cfg: kronecker.New(cfg.Scale, cfg.Seed).Defaults(), ef: cfg.EdgeFactor}, nil
	case GenPPL:
		return gensuite.PPL{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed}, nil
	case GenER:
		return gensuite.ER{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed}, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown generator %q", cfg.Generator)
	}
}

// kroneckerGen adapts the kronecker package to the gensuite.Generator
// interface.
type kroneckerGen struct {
	cfg kronecker.Config
	ef  int
}

func (g kroneckerGen) Name() string        { return "kronecker" }
func (g kroneckerGen) NumVertices() uint64 { return g.cfg.N() }
func (g kroneckerGen) NumEdges() uint64 {
	c := g.cfg
	c.EdgeFactor = g.ef
	return c.Defaults().M()
}
func (g kroneckerGen) Generate() (*edge.List, error) {
	c := g.cfg
	c.EdgeFactor = g.ef
	return kronecker.Generate(c.Defaults())
}

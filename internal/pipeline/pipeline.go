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
	"repro/internal/workteam"
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
	// Workers is kernel 0's Kronecker sampling and shuffle width (extsort
	// streams through kronecker.GenerateTo, which does not shuffle), the
	// width of the whole-list stripe passes (fastio.WriteStripedWide and
	// ReadStripedInto: kernel 0's encode, kernel 1's decode and encode in
	// memory, every whole-list decode; naivetsv's stay on one core),
	// kernel 1's in-memory sort width (every variant but coo and the dist
	// variants' by-u sample sort), kernel 2's build and filter and kernel
	// 3's set-up and gather team width (csr, extsort); results are
	// bit-for-bit invariant in it.  It is also the
	// dist variants' rank count.  <= 0 means GOMAXPROCS (four ranks for
	// the dist variants; their kernel 0 and stripe passes then run
	// GOMAXPROCS wide).
	Workers int
	// RunEdges is kernel 1's in-memory run size in edges.  A positive
	// value takes kernel 1 out of core for every variant but coo: it sorts
	// holding at most RunEdges edges — per rank for the dist variants —
	// and spills sorted runs to FS.  Zero sorts in memory, except extsort,
	// which then runs at M/4.  Results are the same either way; negative
	// is invalid.
	RunEdges int
	// SortEndVertices makes K1 sort by (u, v) instead of u only — the
	// paper's "should the end vertices also be sorted?" open question.
	SortEndVertices bool
	// DistMode is the execution mode of the dist variants' runtime:
	// "goroutine" (ranks as goroutines exchanging channel messages; the
	// default when empty) or "socket" (worker processes over unix-domain
	// sockets).
	DistMode string
	// RankWorkers is the hybrid intra-rank worker count of the dist
	// variants' runtime (dist.Config.Workers): each rank's local kernel-3
	// product and kernel-1 partitioning run on this many goroutines.
	// Results are bit-for-bit invariant in it; <= 1 keeps ranks serial.
	RankWorkers int
	// Checkpoint configures epoch checkpoint/restart of the distributed
	// kernel 3 (dist.CheckpointSpec semantics: FS enables it, Resume
	// restarts from the newest complete epoch).  Only the variants with a
	// distributed kernel 3 — dist and distgo — accept it.  The
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
	// MatrixSource, when non-nil, lets the run exchange the kernel-2
	// filtered, normalized matrix with an external cache.  The runner
	// consults it once before the kernels start, when K2 is scheduled,
	// whatever the variant: a hit skips kernels 0–2 — a warm
	// full-pipeline run performs only kernel 3 (the dist variants
	// row-block the cached matrix across their ranks instead of
	// recomputing it); a miss obligates the run to deposit its own
	// kernel-2 output through the lease's Fill.  The kernel-2 matrix is
	// canonical — column-sorted rows, duplicate edges accumulated — so it
	// is bit-identical across all variants and safe to exchange between
	// them.  The hook sees the defaulted Config; interactions are metered
	// in the Result's Cache record.
	MatrixSource func(Config) (MatrixLease, error)
	// FabricSource, when non-nil, lends the dist variants' socket-mode
	// kernel 3 an open worker fabric of procs ranks in place of one
	// spawned and torn down inside the kernel.  Together with a
	// matrix hit's MatrixLease.ID it makes a warm socket run the
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
	if cc.RunEdges < 0 {
		return fmt.Errorf("pipeline: RunEdges %d, want >= 0", cc.RunEdges)
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
	// EventCacheHit fires when Config.MatrixSource serves the kernel-2
	// matrix.  Kernel is K2Filter, the artifact's producing kernel;
	// kernels 0–2 are skipped, so they emit no start/end events of their
	// own.
	EventCacheHit
	// EventCacheMiss fires when MatrixSource was consulted but held no
	// resident matrix: this run computes it and deposits it.  Kernel is
	// K2Filter.
	EventCacheMiss
	// EventRunStarted fires once when a run clears admission and begins
	// executing.  Only Service.RunStream emits it.
	EventRunStarted
	// EventRunEnd fires exactly once, last, with the run's Result or
	// error.  Only Service.RunStream emits it.
	EventRunEnd
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
	case EventRunStarted:
		return "run-started"
	case EventRunEnd:
		return "run-end"
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

// StageCacheStats records a run's interaction with one cached artifact:
// at most one hit or one miss.
type StageCacheStats struct {
	// Hits counts artifacts served from the cache.
	Hits uint64
	// Misses counts artifacts this run had to compute (and deposited).
	Misses uint64
}

// CacheStats records a run's interaction with an external artifact
// cache (Config.MatrixSource).
type CacheStats struct {
	// Matrix is the kernel-2 filtered matrix (MatrixSource).
	Matrix StageCacheStats
}

// MatrixLease is one MatrixSource transaction.  On a hit, Matrix carries
// the shared kernel-2 artifact, read-only.  On a miss, Fill is non-nil
// and the runner MUST invoke it exactly once: with the run's own kernel-2
// output on success, or with the failure (a cancelled or failed fill is
// delivered to concurrent waiters and never cached, so the key is not
// poisoned).  Mass carries the pre-filter matrix mass (Result.MatrixMass)
// alongside the matrix so a warm run's Result is complete without
// re-deriving it.
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
	// Transposed, when non-nil, returns the artifact's length-ordered
	// transpose — kernel 3's gather operand — built at most once per
	// cached artifact and shared read-only like the matrix itself.  On a
	// miss it is the transpose of the matrix Fill deposits, and the
	// runner calls it only after a successful Fill.
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
	// Spill is the out-of-core kernel 1's run-file record (extsort, and
	// every variant but coo with a positive RunEdges; nil otherwise).
	Spill *SpillStats
	// Cache is the run's cache record — non-nil only when
	// Config.MatrixSource was actually consulted.
	Cache *CacheStats
	// EncodedBytes is the encoded size of each stripe set the run wrote
	// ("k0", "k1"), taken as its writer returned (settleStripes).
	EncodedBytes map[string]int64
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
	// MatrixID and MatrixT are the cache's MatrixLease.ID and Transposed
	// of Matrix, set once Matrix is the cached artifact (served by a hit,
	// or deposited by this run's fill).  Kernel-3 implementations read
	// the transpose through Transposed().
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
	// Spill records the out-of-core kernel 1's run-file traffic (nil for
	// in-memory sorts).
	Spill *SpillStats
	// Cache records the cache interaction when Cfg.MatrixSource is set
	// (filled by the runner).
	Cache *CacheStats
	// spare is the edge list the last kernel generated or decoded into:
	// the next kernel decodes its input into it (readEdges) instead of
	// allocating and first-touching a list of the same size, and the
	// runner drops it when kernel 2 returns.  No list a run holds is ever
	// shared, so the spare is always the run's own (DESIGN.md §12).
	spare *edge.List
	// ownFS records that the runner made FS (Config.FS was nil), so no
	// one else can open its files (dropStripes).
	ownFS bool
	// ctx is the run's cancellation context; nil means background.
	// Variants read it through Context().
	ctx context.Context
}

// Transposed returns Matrixᵀ, length-ordered, for the gather engines: the
// cache's shared copy when Matrix is the cached artifact, a fresh one
// otherwise.  Read-only.
func (r *Run) Transposed() *sparse.Ordered {
	if r.MatrixT != nil {
		return r.MatrixT()
	}
	return r.Matrix.TransposeOrderedWide(r.Cfg.Workers)
}

// Context returns the run's cancellation context.  Variants thread it
// into the distributed runtime and the kernel-3 engines; a Run built
// without one (a mix-and-match composition driving the kernels directly)
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
	ownFS := cfg.FS == nil
	cfg = cfg.withDefaults()
	v := registry[cfg.Variant]
	var meter *vfs.Metered
	if cfg.MeterIO {
		meter = vfs.NewMetered(cfg.FS)
		cfg.FS = meter
	}
	run := &Run{Cfg: cfg, FS: cfg.FS, ctx: ctx, ownFS: ownFS}
	scheduled := func(k Kernel) bool {
		for _, kk := range kernels {
			if kk == k {
				return true
			}
		}
		return false
	}
	// Cache negotiation happens up front.  A hit skips kernels 0–2; a
	// miss leaves this run a fill obligation it discharges when kernel 2
	// completes — or with the run's error, which concurrent waiters
	// receive and retry past, so a cancelled fill never poisons the key.
	var hit bool
	var miss MatrixLease
	defer func() {
		// Discharge an unfulfilled obligation on every exit path so
		// waiters are never stranded.
		if miss.Fill != nil {
			miss.Fill(nil, 0, fillAbortErr(err))
		}
	}()
	if cfg.MatrixSource != nil && scheduled(K2Filter) {
		lease, lerr := cfg.MatrixSource(cfg)
		if lerr != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("pipeline: matrix source: %w", lerr)
		}
		run.Cache = &CacheStats{}
		kind := EventCacheMiss
		if hit = lease.Hit; hit {
			run.Cache.Matrix.Hits++
			run.Matrix = lease.Matrix
			run.MatrixMass = lease.Mass
			run.MatrixID, run.MatrixT = lease.ID, lease.Transposed
			kind = EventCacheHit
		} else {
			run.Cache.Matrix.Misses++
			miss = lease
		}
		if cfg.Progress != nil {
			cfg.Progress(Event{Kind: kind, Kernel: K2Filter})
		}
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
	// closures: the sources and Progress are plumbing inputs that capture
	// the caller's context and cache — retaining them in every Result
	// would keep those alive for the Result's lifetime.
	resCfg := cfg
	resCfg.MatrixSource = nil
	resCfg.FabricSource = nil
	resCfg.Progress = nil
	resCfg.Checkpoint.OnCommit = nil
	resCfg.Checkpoint.OnResume = nil
	res = &Result{Config: resCfg, EncodedBytes: map[string]int64{}}
	m := cfg.M()
	for _, k := range kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if hit && k >= K0Generate && k <= K2Filter {
			// Served by the cache: the matrix this kernel leads to (and
			// its storage writes) already exist.
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
		if err := run.settleStripes(k, res); err != nil {
			return nil, fmt.Errorf("pipeline: %v (%s): %w", k, cfg.Variant, err)
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
			// Discharge the fill as soon as kernel 2 completes, so
			// concurrent same-key waiters unblock before kernel 3.
			switch {
			case miss.Fill == nil:
			case run.Matrix != nil:
				miss.Fill(run.Matrix, run.MatrixMass, nil)
				run.MatrixID, run.MatrixT = miss.ID, miss.Transposed
			default:
				miss.Fill(nil, 0, fmt.Errorf("pipeline: variant %q produced no matrix artifact", cfg.Variant))
			}
			miss.Fill = nil
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

// sortKernel1 is kernel 1 of every variant but coo, and the dist variants'
// (u, v) ablation: sort the "k0" stripes by u — with byUV, by (u, v) —
// into the "k1" stripes.  A positive runEdges takes it out of core: the
// run's spare is dropped first, so no more than runEdges edges are held
// (plus the sort's auxiliary list), and externalSort streams the stripes.
// Otherwise the stripes decode into the spare, xsort.Sort sorts it and the
// list encodes into the k1 stripes, each Config.Workers wide.  The k1 bytes are the same either way, at every
// width and run size: every path is a stable sort.
func sortKernel1(r *Run, runEdges int, byUV bool) error {
	if runEdges > 0 {
		r.spare = nil
		return externalSort(r, runEdges, byUV)
	}
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	// The list is all kernel 1 needs of "k0" from here: a run-private FS
	// drops it before the sort's auxiliary list is made (DESIGN.md §7).
	if err := r.dropStripes("k0"); err != nil {
		return err
	}
	xsort.Sort(l, byUV, r.Cfg.Workers)
	return fastio.WriteStripedWide(r.FS, "k1", r.Codec(), r.Cfg.NFiles, l, r.Cfg.Workers)
}

// externalSort is sortKernel1 out of core: stream the k0 stripes through
// xsort.External with a runEdges-edge buffer into the k1 stripes,
// recording the spill.
func externalSort(r *Run, runEdges int, byUV bool) error {
	src, err := fastio.NewStripedSource(r.FS, "k0", r.Codec())
	if err != nil {
		return err
	}
	defer src.Close()
	sink, err := fastio.NewStripedSink(r.FS, "k1", r.Codec(), r.Cfg.NFiles, int64(r.Cfg.M()))
	if err != nil {
		return err
	}
	stats, err := xsort.External(src, sink, xsort.ExternalConfig{
		FS:        r.FS,
		TmpPrefix: "tmp/extsort",
		RunEdges:  runEdges,
		ByUV:      byUV,
		Codec:     r.SpillCodec(),
	})
	if err != nil {
		sink.Close()
		return err
	}
	r.Spill = &SpillStats{
		Codec:        stats.Codec,
		Runs:         stats.Runs,
		BytesWritten: stats.Spill.BytesWritten,
		BytesRead:    stats.Spill.BytesRead,
	}
	return sink.Close()
}

// buildMatrix is kernel 2 of every variant that builds the matrix from
// kernel 1's sorted files (csr, extsort), Config.Workers wide: readMatrix
// builds it, and Kernel2Filter filters and normalizes it on as many
// workers.  The matrix, the statistics and the first error are the serial
// ones at every width.
func buildMatrix(r *Run) error {
	a, err := readMatrix(r)
	if err != nil {
		return err
	}
	a.Kernel2Filter(r.Cfg.Workers)
	r.Matrix = a
	return nil
}

// readMatrix builds the counting matrix of the "k1" stripes: they are
// read in pieces, which Config.Workers workers decode and build into a
// sparse.Builder reserved at M while the caller places them in order
// (fastio.ReadPieces), and the matrix mass must equal the edges read.  It
// drops the run's spare before it reads anything, and no local here ever
// holds that list, so a collection that starts inside the kernel cannot
// find it through a stale register (DESIGN.md §7).
func readMatrix(r *Run) (*sparse.CSR, error) {
	r.spare = nil
	b, err := sparse.NewBuilder(int(r.Cfg.N()))
	if err != nil {
		return nil, err
	}
	// M bounds NNZ, so Col and Val are made once.  (Past the int range —
	// a 32-bit build from scale 27 — no matrix fits anyway.)
	if m := r.Cfg.M(); m <= uint64(^uint(0)>>1) {
		b.Reserve(int(m))
	}
	edges, err := fastio.ReadPieces(r.FS, "k1", r.Codec(), r.Cfg.Workers, k2PieceBytes(r), b)
	if err != nil {
		return nil, fmt.Errorf("kernel 2 stream: %w", err)
	}
	a := b.Finish()
	r.MatrixMass = a.SumValues()
	if r.MatrixMass != float64(edges) {
		return nil, fmt.Errorf("kernel 2: matrix mass %v != streamed edges %d", r.MatrixMass, edges)
	}
	return a, nil
}

// k2PieceSize is the bytes per piece kernel 2 reads (fastio.ReadPieces):
// 6144 edges' worth in the run's format, or M/(64·Workers) edges if that
// is fewer, but no fewer than 64, and at most 64 KiB.  Each of the ring's
// 2·Workers slots holds a piece, its decoded edges and the rows the
// builder makes of them (~40 bytes an edge), so the slots take about a
// byte per edge of the graph on any number of cores, and from scale 16 on
// two workers a piece is big enough that its hand-off, some microseconds,
// does not show.
func k2PieceSize(r *Run) int {
	edges := min(6144, max(64, r.Cfg.M()/uint64(64*workteam.Width(r.Cfg.Workers))))
	return min(64<<10, int(float64(edges)*r.Codec().BytesPerEdge(r.Cfg.N())))
}

// k2PieceBytes is k2PieceSize, or in a test a smaller size.
var k2PieceBytes = k2PieceSize

// gatherKernel3 is kernel 3 on the gather engine over Matrixᵀ, on a team
// Config.Workers wide (csr, extsort).  The bits are the serial
// gather's for every worker count.
func gatherKernel3(r *Run) error {
	pe, err := pagerank.NewParallelEngine(r.Matrix, r.Transposed(), r.Cfg.Workers, r.Cfg.PageRank)
	if err != nil {
		return err
	}
	defer pe.Close()
	r.Rank, err = pe.RunContext(r.Context())
	return err
}

// scatterKernel3 is kernel 3 on the row-major scatter engine (coo,
// columnar).
func scatterKernel3(r *Run) error {
	eng, err := pagerank.NewScatterEngine(r.Matrix, r.Cfg.PageRank)
	if err != nil {
		return err
	}
	r.Rank, err = eng.RunContext(r.Context())
	return err
}

// generateEdges is kernel 0 of every variant that materializes the edge
// list: generate it and hand it to writeGenerated.
func generateEdges(r *Run) error {
	gen, err := generate(r.Cfg)
	if err != nil {
		return err
	}
	l, err := gen.Generate()
	if err != nil {
		return err
	}
	return writeGenerated(r, l)
}

// writeGenerated writes kernel 0's list l to the "k0" stripes,
// Config.Workers wide, and keeps it as the run's spare.
func writeGenerated(r *Run, l *edge.List) error {
	if err := fastio.WriteStripedWide(r.FS, "k0", r.Codec(), r.Cfg.NFiles, l, r.Cfg.Workers); err != nil {
		return err
	}
	r.spare = l
	return nil
}

// dropStripes removes the stripe set prefix, if present, from a run-private
// FS: no one else can open it, and a set held past its last reader is live
// heap that doubles into the goal of any collection meanwhile (DESIGN.md §7).
func (r *Run) dropStripes(prefix string) error {
	if !r.ownFS {
		return nil
	}
	names, _ := fastio.StripeNames(r.FS, prefix, r.Codec()) // its only error: no such set
	for _, name := range names {
		if err := r.FS.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// settleStripes follows kernel k: the size of the set it wrote ("k0" after
// kernel 0, "k1" after kernel 1) goes to res.EncodedBytes, and the set it
// read last ("k0" after kernel 1, "k1" after kernel 2) is dropped.
func (r *Run) settleStripes(k Kernel, res *Result) error {
	prefixes := []string{"k0", "k1"}
	if k <= K1Sort {
		if n, err := fastio.StripedBytes(r.FS, prefixes[k], r.Codec()); err == nil {
			res.EncodedBytes[prefixes[k]] = n
		}
	}
	if k == K1Sort || k == K2Filter {
		return r.dropStripes(prefixes[k-1])
	}
	return nil
}

// readEdges decodes the stripes of prefix ("k0" or "k1"), Config.Workers
// wide, into the run's spare list, or — the first kernel of a kernel subset — into a new one,
// made once at the M edges a run's files hold (up to 2^30).  The list it
// returns is the run's spare from then on, so the next kernel decodes
// into it in turn.
func readEdges(r *Run, prefix string) (*edge.List, error) {
	dst := r.spare
	if dst == nil {
		dst = edge.NewList(int(min(r.Cfg.M(), 1<<30)))
	}
	l, err := fastio.ReadStripedInto(r.FS, prefix, r.Codec(), dst, r.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	r.spare = l
	return l, nil
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

// generate dispatches to the configured K0 generator, shared by variants.
func generate(cfg Config) (gen gensuite.Generator, err error) {
	switch cfg.Generator {
	case GenKronecker:
		return kroneckerGen{kroneckerConfig(cfg)}, nil
	case GenPPL:
		return gensuite.PPL{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed}, nil
	case GenER:
		return gensuite.ER{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed}, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown generator %q", cfg.Generator)
	}
}

// kroneckerConfig is cfg's Kronecker generator, cfg.Workers wide.
func kroneckerConfig(cfg Config) kronecker.Config {
	kcfg := kronecker.New(cfg.Scale, cfg.Seed)
	kcfg.EdgeFactor, kcfg.Workers = cfg.EdgeFactor, cfg.Workers
	return kcfg
}

// kroneckerGen adapts the kronecker package to the gensuite.Generator
// interface.
type kroneckerGen struct{ cfg kronecker.Config }

func (g kroneckerGen) Name() string                  { return "kronecker" }
func (g kroneckerGen) NumVertices() uint64           { return g.cfg.N() }
func (g kroneckerGen) NumEdges() uint64              { return g.cfg.M() }
func (g kroneckerGen) Generate() (*edge.List, error) { return kronecker.Generate(g.cfg) }

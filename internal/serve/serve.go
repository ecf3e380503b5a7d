// Package serve is the pipeline's service layer: a long-lived Service
// that runs many benchmark pipelines concurrently under one roof — a
// bounded run-admission queue, a shared singleflight staged artifact
// cache keyed by graph identity, context cancellation end to end, and
// a streaming progress API.  It is the batch/streaming ingestion path
// of the roadmap's production-scale goal: where the one-shot
// entrypoints recompute everything for every run, a Service computes
// each distinct artifact — the kernel-0 edge list, the kernel-1 sorted
// list, the kernel-2 filtered matrix — exactly once and shares it
// read-only across every run that needs it, so warm runs are K3-bound.
//
// core.NewService is the public constructor; DESIGN.md §8 specifies
// the lifecycle and §12 the staged cache contract.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/pipeline"
	"repro/internal/vfs"
)

// GraphKey is the identity of a generated graph — the generator cache's
// key.  Two runs whose configurations agree on these four fields draw
// from the same kernel-0 edge list.
type GraphKey struct {
	// Generator is the kernel-0 generator kind (empty means Kronecker).
	Generator pipeline.GeneratorKind
	// Scale is the Graph500 scale factor S.
	Scale int
	// EdgeFactor is the average edges per vertex (0 means 16).
	EdgeFactor int
	// Seed selects all random streams.
	Seed uint64
}

// normalize applies the pipeline's defaulting so spellings of the same
// graph ("" vs GenKronecker, 0 vs 16) share one cache entry.
func (k GraphKey) normalize() GraphKey {
	if k.Generator == "" {
		k.Generator = pipeline.GenKronecker
	}
	if k.EdgeFactor == 0 {
		k.EdgeFactor = 16
	}
	return k
}

// keyOf derives the cache key from a defaulted pipeline configuration.
func keyOf(cfg pipeline.Config) GraphKey {
	return GraphKey{
		Generator:  cfg.Generator,
		Scale:      cfg.Scale,
		EdgeFactor: cfg.EdgeFactor,
		Seed:       cfg.Seed,
	}.normalize()
}

// sortedKeyOf derives the sorted stage's key.  The runner presents the
// effective kernel-1 order in SortEndVertices (the columnar variant
// always sorts by (u, v)), so runs that produce the same list order
// share one entry regardless of variant.
func sortedKeyOf(cfg pipeline.Config) cacheKey {
	return cacheKey{stage: stageSorted, graph: keyOf(cfg), byUV: cfg.SortEndVertices}
}

// matrixKeyOf derives the matrix stage's key: graph identity × filter
// rule.  The kernel-2 matrix is canonical across variants, sort order
// and edge-file format, so nothing else participates.
func matrixKeyOf(cfg pipeline.Config) cacheKey {
	return cacheKey{stage: stageMatrix, graph: keyOf(cfg), filter: defaultFilterRule}
}

// Service is the long-lived run coordinator.  Construct it once with
// New, share it between goroutines freely — all methods are safe for
// concurrent use — and Close it when done accepting work.
type Service struct {
	sem    chan struct{}  // admission: one slot per concurrently executing run
	cache  *artifactCache // nil when caching is disabled
	closed chan struct{}  // closed by Close; admit selects on it, so queued callers unblock

	closeOnce sync.Once
	mu        sync.Mutex
	started   uint64
	active    int

	ckptOnce sync.Once
	ckptFS   vfs.FS // storage for resume-keyed checkpoints; lazily an in-memory store

	fabrics []*fabricSlot // resident socket fabrics, one per rank count seen; under mu
}

// fabricSlot holds the service's one resident socket fabric of a given
// rank count: worker processes that outlive a run, keeping their row
// blocks of the cached matrix, so a warm DistMode "socket" run is the
// iteration's collectives and nothing else (DESIGN.md §12, §13).
type fabricSlot struct {
	procs int
	// busy is the slot's lock, a channel so that waiting for the run
	// that holds the fabric respects a context.
	busy chan struct{}
	sess *dist.Session // nil until first use and after a discard; under busy
}

// drop closes and forgets the slot's fabric; the caller holds busy.
func (sl *fabricSlot) drop() {
	if sl.sess != nil {
		sl.sess.Close()
		sl.sess = nil
	}
}

// fabricLease is the pipeline.Config.FabricSource of every Service run:
// it waits for the slot, opens a fabric when there is none — or the one
// there is has lost a worker since its last run — and lends it.  Release
// discards the fabric on any error (the next run opens a fresh one) and,
// once the service is closed, with the last run to hand it back.
func (s *Service) fabricLease(ctx context.Context, procs int) (pipeline.FabricLease, error) {
	s.mu.Lock()
	var sl *fabricSlot
	for _, have := range s.fabrics {
		if have.procs == procs {
			sl = have
			break
		}
	}
	if sl == nil {
		sl = &fabricSlot{procs: procs, busy: make(chan struct{}, 1)}
		s.fabrics = append(s.fabrics, sl)
	}
	s.mu.Unlock()
	select {
	case sl.busy <- struct{}{}:
	case <-ctx.Done():
		return pipeline.FabricLease{}, ctx.Err()
	}
	if sl.sess != nil && sl.sess.Err() != nil {
		sl.drop()
	}
	if sl.sess == nil {
		sess, err := dist.OpenSession(ctx, procs, dist.SocketSpec{})
		if err != nil {
			<-sl.busy
			return pipeline.FabricLease{}, err
		}
		sl.sess = sess
	}
	return pipeline.FabricLease{Session: sl.sess, Release: func(err error) {
		if err != nil {
			sl.drop()
		}
		<-sl.busy
		if s.isClosed() {
			sl.closeIfIdle()
		}
	}}, nil
}

// closeIfIdle closes the slot's fabric unless a run holds it — that
// run's Release comes back here.
func (sl *fabricSlot) closeIfIdle() {
	select {
	case sl.busy <- struct{}{}:
		sl.drop()
		<-sl.busy
	default:
	}
}

// Option configures a Service at construction.
type Option func(*Service)

// WithMaxConcurrent bounds the number of runs executing at once; callers
// beyond the bound queue inside Run until a slot frees (or their context
// is cancelled).  Values below 1 mean 1.  The default is GOMAXPROCS.
func WithMaxConcurrent(n int) Option {
	if n < 1 {
		n = 1
	}
	return func(s *Service) { s.sem = make(chan struct{}, n) }
}

// WithCacheBudget bounds the staged artifact cache to the given number
// of resident bytes across all stages, with edge lists and matrices
// charged at their real in-memory footprint and the least-recently-used
// artifact evicted first.  The most recently deposited artifact is
// never evicted, so a single artifact larger than the budget stays
// resident until the next deposit displaces it.  A budget <= 0 disables
// the cache entirely.
func WithCacheBudget(bytes int64) Option {
	return func(s *Service) {
		if bytes <= 0 {
			s.cache = nil
		} else {
			s.cache = newArtifactCache(0, bytes)
		}
	}
}

// WithCheckpointStorage sets the storage resume-keyed runs (see
// WithResumeKey) write their kernel-3 epochs to — a vfs.Dir makes
// interrupted runs resumable across processes.  The default is an
// in-memory store created on first use, which survives for the
// Service's lifetime: a run killed mid-kernel-3 in this process resumes
// under the same key.
func WithCheckpointStorage(fs vfs.FS) Option {
	return func(s *Service) { s.ckptFS = fs }
}

// checkpointFS returns the service's resume-key storage, creating the
// in-memory default on first use.
func (s *Service) checkpointFS() vfs.FS {
	s.ckptOnce.Do(func() {
		if s.ckptFS == nil {
			s.ckptFS = vfs.NewMem()
		}
	})
	return s.ckptFS
}

// New constructs a Service.  The zero-option Service admits GOMAXPROCS
// concurrent runs and caches up to 8 generated graphs.
func New(opts ...Option) *Service {
	s := &Service{
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		cache:  newArtifactCache(8, 0),
		closed: make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Close stops admitting new runs: callers queued in admission unblock
// with an error, and later Runs are rejected.  Runs already admitted
// complete normally; closing is idempotent.  Resident socket fabrics are
// closed — workers hung up on and reaped — here when idle, else by the
// last run using them as it finishes.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mu.Lock()
		slots := append([]*fabricSlot(nil), s.fabrics...)
		s.mu.Unlock()
		for _, sl := range slots {
			sl.closeIfIdle()
		}
	})
	return nil
}

// isClosed reports whether Close has been called.
func (s *Service) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// StageStats is one staged-cache level's cumulative counters: a miss
// computed an artifact, a hit shared one (resident or joined in
// flight), Entries/Bytes are the currently resident footprint.
type StageStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
	Bytes   int64
}

// Stats is a point-in-time snapshot of the service's counters.
type Stats struct {
	// RunsStarted counts runs admitted since construction.
	RunsStarted uint64
	// RunsActive is the number of runs executing right now.
	RunsActive int
	// CacheEntries is the number of artifacts currently resident across
	// all stages, and CacheBytes their summed footprint — the quantity
	// WithCacheBudget bounds.  All cache counters stay zero with the
	// cache disabled.
	CacheEntries int
	CacheBytes   int64
	// CacheEdges, CacheSorted and CacheMatrix are the per-stage
	// counters of the staged artifact cache: the raw kernel-0 edge
	// list, the kernel-1 sorted list, and the kernel-2 filtered,
	// normalized matrix.
	CacheEdges  StageStats
	CacheSorted StageStats
	CacheMatrix StageStats
}

// Stats returns a snapshot of the service's counters.
func (s *Service) Stats() Stats {
	var st Stats
	if s.cache != nil {
		st.CacheEdges = s.cache.stageStats(stageEdges)
		st.CacheSorted = s.cache.stageStats(stageSorted)
		st.CacheMatrix = s.cache.stageStats(stageMatrix)
		st.CacheEntries = st.CacheEdges.Entries + st.CacheSorted.Entries + st.CacheMatrix.Entries
		st.CacheBytes = st.CacheEdges.Bytes + st.CacheSorted.Bytes + st.CacheMatrix.Bytes
	}
	s.mu.Lock()
	st.RunsStarted = s.started
	st.RunsActive = s.active
	s.mu.Unlock()
	return st
}

// Edges returns the generated edge list for key, serving it from the
// shared cache (generating at most once per key, however many callers
// arrive concurrently).  The returned list is shared and MUST be treated
// as read-only; every dist.Execute op and every kernel honors that.
func (s *Service) Edges(ctx context.Context, key GraphKey) (*edge.List, error) {
	key = key.normalize()
	cfg := pipeline.Config{
		Generator:  key.Generator,
		Scale:      key.Scale,
		EdgeFactor: key.EdgeFactor,
		Seed:       key.Seed,
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.cache == nil {
		return pipeline.GenerateEdges(cfg)
	}
	l, _, err := s.cache.edges(ctx, key, func() (*edge.List, error) {
		return pipeline.GenerateEdges(cfg)
	})
	return l, err
}

// runSettings collects the per-run options.
type runSettings struct {
	kernels   []pipeline.Kernel
	progress  func(pipeline.Event)
	onStarted func() // fires after admission, before the first kernel (RunStream)
	resumeKey string
}

// withStarted is RunStream's internal hook for the moment a queued run
// clears admission.
func withStarted(fn func()) RunOption {
	return func(rs *runSettings) { rs.onStarted = fn }
}

// RunOption configures one Run (or RunStream) call.
type RunOption func(*runSettings)

// WithKernels restricts the run to the listed kernels, in order, like
// the paper's independently runnable stages.  The default is all four.
func WithKernels(ks ...pipeline.Kernel) RunOption {
	return func(rs *runSettings) { rs.kernels = ks }
}

// WithProgress attaches a synchronous observer for the run's pipeline
// events (kernel start/end, kernel-3 iterations, checkpoint saves and
// restores).  RunStream is the channel-shaped form of the same hook.
func WithProgress(fn func(pipeline.Event)) RunOption {
	return func(rs *runSettings) { rs.progress = fn }
}

// WithResumeKey makes the run's distributed kernel 3 checkpoint under
// the given key in the service's checkpoint storage and resume from the
// newest complete epoch found there.  A run interrupted mid-kernel-3 —
// cancelled, crashed on an injected fault, or killed with the process
// when the storage is durable — is continued by running the same
// configuration under the same key; a first run under a key is an
// ordinary fresh start.  The key must only be shared by runs with
// identical configurations (the dist layer rejects mismatched n or
// damping).  Config.Checkpoint's FS/Prefix, when set, take precedence
// over the derived ones; Every and the other knobs pass through.
func WithResumeKey(key string) RunOption {
	return func(rs *runSettings) { rs.resumeKey = key }
}

// Run executes one pipeline under the service: the call is admitted
// through the bounded run queue (waiting respects ctx), the kernels
// draw from the shared staged artifact cache at the deepest resident
// stage — a warm run skips K0–K2 outright and is K3-bound — and ctx
// cancellation aborts the run mid-kernel (through the kernel-3
// engines' per-iteration checks and the distributed runtime's teardown
// plane) with ctx's error.  The Result's Cache field records the
// per-stage hit/miss interaction.  Results are bit-for-bit those of
// the one-shot core.Run for the same Config: caching changes who
// computes an artifact, never what is computed.
func (s *Service) Run(ctx context.Context, cfg pipeline.Config, opts ...RunOption) (*pipeline.Result, error) {
	rs := runSettings{kernels: []pipeline.Kernel{
		pipeline.K0Generate, pipeline.K1Sort, pipeline.K2Filter, pipeline.K3PageRank,
	}}
	for _, o := range opts {
		o(&rs)
	}
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	if rs.onStarted != nil {
		rs.onStarted()
	}
	if rs.resumeKey != "" {
		if cfg.Checkpoint.FS == nil {
			cfg.Checkpoint.FS = s.checkpointFS()
		}
		if cfg.Checkpoint.Prefix == "" {
			cfg.Checkpoint.Prefix = "ckpt/" + rs.resumeKey
		}
		cfg.Checkpoint.Resume = true
	}
	if s.cache != nil {
		// The three staged-cache seams, deepest stage checked first by
		// the runner: a matrix hit makes the run K3-bound, a sorted hit
		// skips K0–K1, an edges hit skips generation.  Each closure
		// captures ctx so waiting to join an in-flight fill respects
		// this run's cancellation.
		if cfg.Source == nil {
			cfg.Source = func(dcfg pipeline.Config) (*edge.List, bool, error) {
				return s.cache.edges(ctx, keyOf(dcfg), func() (*edge.List, error) {
					return pipeline.GenerateEdges(dcfg)
				})
			}
		}
		if cfg.SortedSource == nil {
			cfg.SortedSource = func(dcfg pipeline.Config) (pipeline.SortedLease, error) {
				return s.cache.sortedLease(ctx, sortedKeyOf(dcfg))
			}
		}
		if cfg.MatrixSource == nil {
			cfg.MatrixSource = func(dcfg pipeline.Config) (pipeline.MatrixLease, error) {
				return s.cache.matrixLease(ctx, matrixKeyOf(dcfg))
			}
		}
	}
	if cfg.FabricSource == nil {
		cfg.FabricSource = func(procs int) (pipeline.FabricLease, error) {
			return s.fabricLease(ctx, procs)
		}
	}
	if rs.progress != nil {
		cfg.Progress = rs.progress
	}
	return pipeline.ExecuteKernelsContext(ctx, cfg, rs.kernels)
}

// admit takes an admission slot, queueing until one frees, the context
// is cancelled, or the service is closed (which also unblocks queued
// callers).  The post-acquire re-check hands back a slot won in a race
// with Close; rejection is best-effort by nature — a Run whose re-check
// ran just before Close completed counts as already admitted and
// completes normally, per Close's contract.
func (s *Service) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.closed:
		return fmt.Errorf("serve: service is closed")
	}
	if s.isClosed() {
		<-s.sem
		return fmt.Errorf("serve: service is closed")
	}
	s.mu.Lock()
	s.started++
	s.active++
	s.mu.Unlock()
	return nil
}

func (s *Service) release() {
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	<-s.sem
}

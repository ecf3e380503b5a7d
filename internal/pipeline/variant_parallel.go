package pipeline

// The parallel variant is the paper's "future parallel implementation":
// kernel 0 generates with independent per-worker random streams.  Kernels
// 1–3 are csr's: the sort Config.Workers wide, the streaming build and the
// gather on a Config.Workers-wide team.  On a single-CPU host it
// degenerates gracefully to the serial code paths.

import "repro/internal/kronecker"

func init() { Register(parallelVariant{}) }

type parallelVariant struct{}

// Name implements Variant.
func (parallelVariant) Name() string { return "parallel" }

// Description implements Variant.
func (parallelVariant) Description() string {
	return "goroutine-parallel generation; csr's sort, streaming build and team gather PageRank (the paper's parallel decomposition)"
}

// CacheTraits implements the optional cache interface: this variant
// exchanges no matrix.  Its per-worker seeded streams draw a different
// edge multiset than the serial generator — and a different one per
// worker count (kronecker.GenerateParallel is deterministic only for a
// fixed (cfg, workers)) — so its kernel-2 matrix does not have the
// identity the cache key captures.  Serving a serial artifact here (or
// depositing this variant's) would silently change documented output.
func (parallelVariant) CacheTraits() CacheTraits {
	return CacheTraits{}
}

// Kernel0 implements Variant.  For the Kronecker generator, each worker
// draws from its own stream, seeded from (seed, worker) by
// xrand.NewSeeded rather than jumped, without communication — the
// scalability property the paper highlights in the Graph500 generator,
// at the price of a multiset per width.  csr's kernel 0 has the property
// with the serial bits: its workers sample chunks of the one stream from
// jump-derived states (kronecker.Generate).
func (parallelVariant) Kernel0(r *Run) error {
	if r.Cfg.Generator != GenKronecker {
		return generateEdges(r)
	}
	kcfg := kronecker.New(r.Cfg.Scale, r.Cfg.Seed)
	kcfg.EdgeFactor = r.Cfg.EdgeFactor
	l, err := kronecker.GenerateParallel(kcfg, r.Cfg.Workers)
	if err != nil {
		return err
	}
	return writeGenerated(r, l)
}

// Kernel1 implements Variant.
func (parallelVariant) Kernel1(r *Run) error {
	return sortKernel1(r, r.Cfg.RunEdges, r.Cfg.SortEndVertices)
}

// Kernel2 implements Variant.
func (parallelVariant) Kernel2(r *Run) error { return buildMatrix(r) }

// Kernel3 implements Variant.
func (parallelVariant) Kernel3(r *Run) error { return gatherKernel3(r) }

package pipeline

// The parallel variant is the paper's "future parallel implementation":
// kernel 0 generates with independent per-worker random streams and writes
// stripes concurrently, kernel 1 reads stripes concurrently and runs the
// parallel merge sort, kernel 2 is csr's streaming build, and kernel 3
// uses the row-partitioned parallel PageRank engine.  On a single-CPU host it degenerates gracefully to the
// serial code paths.

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

func init() { Register(parallelVariant{}) }

type parallelVariant struct{}

// Name implements Variant.
func (parallelVariant) Name() string { return "parallel" }

// Description implements Variant.
func (parallelVariant) Description() string {
	return "goroutine-parallel generation, striped I/O, merge sort and row-partitioned PageRank on a persistent worker team (the paper's parallel decomposition, allocation-free in steady state)"
}

// CacheTraits implements the optional cache interface: this variant
// exchanges no matrix.  Its per-worker jump streams draw a different
// edge multiset than the serial generator — and a different one per
// worker count (kronecker.GenerateParallel is deterministic only for a
// fixed (cfg, workers)) — so its kernel-2 matrix does not have the
// identity the cache key captures.  Serving a serial artifact here (or
// depositing this variant's) would silently change documented output.
func (parallelVariant) CacheTraits() CacheTraits {
	return CacheTraits{}
}

func (parallelVariant) workers(r *Run) int {
	if r.Cfg.Workers > 0 {
		return r.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Kernel0 implements Variant.  For the Kronecker generator, workers draw
// from independent jump-derived streams without communication, exactly the
// scalability property the paper highlights in the Graph500 generator.
func (v parallelVariant) Kernel0(r *Run) error {
	var l *edge.List
	var err error
	if r.Cfg.Generator == GenKronecker {
		kcfg := kronecker.New(r.Cfg.Scale, r.Cfg.Seed)
		kcfg.EdgeFactor = r.Cfg.EdgeFactor
		l, err = kronecker.GenerateParallel(kcfg, v.workers(r))
	} else {
		var gen interface {
			Generate() (*edge.List, error)
		}
		gen, err = generate(r.Cfg)
		if err != nil {
			return err
		}
		l, err = gen.Generate()
	}
	if err != nil {
		return err
	}
	return parallelWriteStriped(r.FS, "k0", r.Codec(), r.Cfg.NFiles, l)
}

// Kernel1 implements Variant.
func (v parallelVariant) Kernel1(r *Run) error {
	l, err := parallelReadStriped(r.FS, "k0", r.Codec())
	if err != nil {
		return err
	}
	if r.Cfg.SortEndVertices {
		xsort.RadixByUV(l) // parallel (u,v) sort not implemented; radix is already the fast path
	} else {
		xsort.ParallelByU(l, v.workers(r))
	}
	return parallelWriteStriped(r.FS, "k1", r.Codec(), r.Cfg.NFiles, l)
}

// Kernel2 implements Variant.
func (parallelVariant) Kernel2(r *Run) error { return buildMatrix(r) }

// Kernel3 implements Variant.
func (v parallelVariant) Kernel3(r *Run) error {
	opt := r.Cfg.PageRank
	opt.Workers = v.workers(r)
	pe, err := pagerank.NewParallelEngine(r.Matrix, opt)
	if err != nil {
		return err
	}
	defer pe.Close()
	res, err := pe.RunContext(r.Context())
	if err != nil {
		return err
	}
	r.Rank = res
	return nil
}

// parallelWriteStriped writes each stripe in its own goroutine, the
// file-per-processor output pattern of parallel Graph500 generators.
func parallelWriteStriped(fs vfs.FS, prefix string, codec fastio.Codec, nfiles int, l *edge.List) error {
	if nfiles < 1 {
		return fmt.Errorf("pipeline: nfiles = %d, want >= 1", nfiles)
	}
	m := l.Len()
	errs := make([]error, nfiles)
	var wg sync.WaitGroup
	for i := 0; i < nfiles; i++ {
		lo := i * m / nfiles
		hi := (i + 1) * m / nfiles
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			errs[i] = writeStripeRange(fs, fastio.StripeName(prefix, codec, i), codec, l, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func writeStripeRange(fs vfs.FS, name string, codec fastio.Codec, l *edge.List, lo, hi int) error {
	w, err := fs.Create(name)
	if err != nil {
		return err
	}
	sink := codec.NewWriter(w)
	if err := fastio.WriteEdges(sink, l, lo, hi); err != nil {
		w.Close()
		return err
	}
	if err := sink.Flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// parallelReadStriped reads every stripe concurrently into per-stripe lists
// and concatenates them in stripe order.
func parallelReadStriped(fs vfs.FS, prefix string, codec fastio.Codec) (*edge.List, error) {
	names, err := fastio.StripeNames(fs, prefix, codec)
	if err != nil {
		return nil, err
	}
	parts := make([]*edge.List, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			parts[i], errs[i] = readOneStripeList(fs, name, codec)
		}(i, name)
	}
	wg.Wait()
	total := 0
	for i := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += parts[i].Len()
	}
	out := edge.NewList(total)
	for _, p := range parts {
		out.AppendList(p)
	}
	return out, nil
}

func readOneStripeList(fs vfs.FS, name string, codec fastio.Codec) (*edge.List, error) {
	r, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	src := codec.NewReader(r)
	l := edge.NewList(0)
	for {
		if _, err := fastio.ReadEdges(src, l, readStripeChunk); err != nil {
			if err == io.EOF {
				return l, nil
			}
			return nil, err
		}
	}
}

// readStripeChunk is the bulk-read batch size of the parallel stripe reader.
const readStripeChunk = 16 << 10

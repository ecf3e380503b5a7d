package pipeline

// The extsort variant is the out-of-core regime the paper requires "if u
// and v are too large to fit in memory": kernel 0 streams edges straight to
// striped files without materializing the edge list, and kernel 1 is an
// external merge sort with a bounded in-memory run buffer, whose size
// (Config.RunEdges) models the available RAM.  Kernels 2 and 3 are csr's:
// the matrix is built from the sorted stream one row at a time.

import (
	"repro/internal/fastio"
	"repro/internal/kronecker"
	"repro/internal/xsort"
)

func init() { Register(extsortVariant{}) }

type extsortVariant struct{}

// Name implements Variant.
func (extsortVariant) Name() string { return "extsort" }

// Description implements Variant.
func (extsortVariant) Description() string {
	return "out-of-core: streamed generation, external merge sort with bounded memory, streaming matrix build (the paper's out-of-memory regime)"
}

func (extsortVariant) runEdges(r *Run) int {
	if r.Cfg.RunEdges > 0 {
		return r.Cfg.RunEdges
	}
	// Default model: a quarter of the edge list fits in memory, echoing
	// the paper's "~25% of available RAM" sizing guidance.  M() is uint64;
	// clamp through int64 before converting so 32-bit builds (int is 32
	// bits) saturate at the largest representable run instead of wrapping
	// negative at large scales.
	quarter := r.Cfg.M() / 4
	const maxInt = int64(^uint(0) >> 1)
	if int64(quarter) < 0 || int64(quarter) > maxInt {
		return int(maxInt)
	}
	if quarter < 1 {
		return 1
	}
	return int(quarter)
}

// Kernel0 implements Variant.  The variant exists for graphs whose edge
// vectors exceed RAM, so its Kronecker path streams edges straight to the
// sink in bounded memory, never materializing the edge list.
func (extsortVariant) Kernel0(r *Run) error {
	sink, err := fastio.NewStripedSink(r.FS, "k0", r.Codec(), r.Cfg.NFiles, int64(r.Cfg.M()))
	if err != nil {
		return err
	}
	switch {
	case r.Cfg.Generator == GenKronecker:
		kcfg := kronecker.New(r.Cfg.Scale, r.Cfg.Seed)
		kcfg.EdgeFactor = r.Cfg.EdgeFactor
		if err := kronecker.GenerateTo(kcfg, sink); err != nil {
			sink.Close()
			return err
		}
	default:
		// The alternative generators are in-memory; stream their output.
		gen, err := generate(r.Cfg)
		if err != nil {
			sink.Close()
			return err
		}
		l, err := gen.Generate()
		if err != nil {
			sink.Close()
			return err
		}
		if err := fastio.WriteEdges(sink, l, 0, l.Len()); err != nil {
			sink.Close()
			return err
		}
	}
	return sink.Close()
}

// Kernel1 implements Variant.
func (v extsortVariant) Kernel1(r *Run) error {
	return externalSort(r, v.runEdges(r), r.Cfg.SortEndVertices)
}

// externalSort is the serial out-of-core kernel 1: stream the k0 stripes
// through xsort.External with a runEdges-edge buffer into the k1 stripes,
// recording the spill.  It is extsort's kernel 1 and the dist variants'
// (u, v) fallback when they sort out of core.
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

// Kernel2 implements Variant.
func (extsortVariant) Kernel2(r *Run) error { return buildMatrix(r) }

// Kernel3 implements Variant.
func (extsortVariant) Kernel3(r *Run) error { return gatherKernel3(r) }

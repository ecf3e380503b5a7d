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
// sink in bounded memory, never materializing the edge list; the
// alternative generators are in-memory and write their list like csr.
func (extsortVariant) Kernel0(r *Run) error {
	if r.Cfg.Generator != GenKronecker {
		return generateEdges(r)
	}
	sink, err := fastio.NewStripedSink(r.FS, "k0", r.Codec(), r.Cfg.NFiles, int64(r.Cfg.M()))
	if err != nil {
		return err
	}
	if err := kronecker.GenerateTo(kroneckerConfig(r.Cfg), sink); err != nil {
		sink.Close()
		return err
	}
	return sink.Close()
}

// Kernel1 implements Variant.
func (v extsortVariant) Kernel1(r *Run) error {
	return sortKernel1(r, v.runEdges(r), r.Cfg.SortEndVertices)
}

// Kernel2 implements Variant.
func (extsortVariant) Kernel2(r *Run) error { return buildMatrix(r) }

// Kernel3 implements Variant.
func (extsortVariant) Kernel3(r *Run) error { return gatherKernel3(r) }

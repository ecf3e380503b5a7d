package pipeline

// The extsort variant is the out-of-core regime the paper requires "if u
// and v are too large to fit in memory": kernel 0 streams edges straight to
// striped files without materializing the edge list, kernel 1 is an
// external merge sort with a bounded in-memory run buffer, and kernel 2
// builds the matrix from the sorted stream one row at a time.  The run
// buffer size (Config.RunEdges) models the available RAM.

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/sparse"
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

// CacheTraits implements the optional staged-cache interface: the list
// stages are bypassed for the same reason Kernel0 bypasses Cfg.Source —
// kernels 0–2 stream in bounded memory and never materialize an edge
// list, so there is no sorted artifact to deposit and consuming one
// would un-out-of-core the variant.  The kernel-2 matrix is resident
// for kernel 3 regardless, so the matrix stage is shared.
func (extsortVariant) CacheTraits() CacheTraits {
	return CacheTraits{MatrixArtifact: true}
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

// Kernel0 implements Variant.  This kernel does NOT consume Cfg.Source:
// the variant exists for graphs whose edge vectors exceed RAM, so its
// Kronecker path streams edges straight to the sink in bounded memory —
// drawing from the service's cache would materialize (and then pin) the
// full edge list, silently un-out-of-coring the out-of-core variant.
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
		RunEdges:  v.runEdges(r),
		ByUV:      r.Cfg.SortEndVertices,
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
func (extsortVariant) Kernel2(r *Run) error {
	src, err := fastio.NewStripedSource(r.FS, "k1", r.Codec())
	if err != nil {
		return err
	}
	defer src.Close()
	n := int(r.Cfg.N())
	b, err := sparse.NewSortedBuilder(n)
	if err != nil {
		return err
	}
	// M bounds NNZ, so Col and Val are made once.  (Past the int range —
	// a 32-bit build from scale 27 — no matrix fits anyway.)
	if m := r.Cfg.M(); m <= uint64(^uint(0)>>1) {
		b.Reserve(int(m))
	}
	// Stream in bounded batches through the bulk read path; the builder
	// consumes each batch and the buffer resets, so memory stays O(batch).
	edges := 0
	buf := edge.NewList(0)
	for {
		buf.Reset()
		if _, err := fastio.ReadEdges(src, buf, 8192); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		for i := 0; i < buf.Len(); i++ {
			if err := b.Add(buf.U[i], buf.V[i]); err != nil {
				return fmt.Errorf("kernel 2 stream: %w", err)
			}
		}
		edges += buf.Len()
	}
	a := b.Finish()
	r.MatrixMass = a.SumValues()
	if r.MatrixMass != float64(edges) {
		return fmt.Errorf("kernel 2: matrix mass %v != streamed edges %d", r.MatrixMass, edges)
	}
	ApplyKernel2Filter(a)
	r.Matrix = a
	return nil
}

// Kernel3 implements Variant.
func (extsortVariant) Kernel3(r *Run) error {
	eng, err := pagerank.NewGatherEngineWith(r.Matrix, r.Transposed(), r.Cfg.PageRank)
	if err != nil {
		return err
	}
	res, err := eng.RunContext(r.Context())
	if err != nil {
		return err
	}
	r.Rank = res
	return nil
}

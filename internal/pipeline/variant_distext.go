package pipeline

// The distext variant is the out-of-core distributed regime: kernel 1 runs
// dist.SortExternal — per-rank bounded run formation spilled to the
// pipeline's storage, the in-memory sample sort's splitter schedule, a
// spilled-run all-to-all and per-bucket k-way merges — while kernels 0, 2
// and 3 are shared with the dist variants.  It is the composition the
// paper's §IV out-of-core requirement and §V parallel analysis jointly
// demand for graphs whose edge vectors exceed a single node's RAM.
// Config.RunEdges bounds the per-rank run buffer (the modeled RAM) and
// Config.DistMode selects simulated or goroutine-rank execution, exactly
// as for dist/distgo.

import (
	"repro/internal/dist"
	"repro/internal/fastio"
	"repro/internal/xsort"
)

func init() { Register(distextVariant{}) }

type distextVariant struct {
	distVariant
}

// Name implements Variant.
func (distextVariant) Name() string { return "distext" }

// Description implements Variant.
func (distextVariant) Description() string {
	return "out-of-core distributed memory: per-rank external run formation, spilled-run all-to-all, k-way bucket merge (§IV out-of-core × §V sample sort)"
}

// Kernel1 implements Variant.
func (v distextVariant) Kernel1(r *Run) error {
	if r.Cfg.SortEndVertices {
		// The distributed sort keys on the start vertex only; the (u,v)
		// ablation falls back to the serial out-of-core external sort,
		// which honors the same RunEdges memory bound.
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
			TmpPrefix: "tmp/distsort",
			RunEdges:  r.Cfg.RunEdges,
			ByUV:      true,
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
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	out, err := dist.Execute(r.Context(), dist.Spec{
		Config: dist.Config{Mode: v.execMode(r)}, Op: dist.OpSortExternal,
		Edges: l, Procs: v.procs(r),
		Ext: dist.ExtSortConfig{
			FS:        r.FS,
			RunEdges:  r.Cfg.RunEdges,
			TmpPrefix: "tmp/distsort",
			Codec:     r.SpillCodec(),
		},
	})
	if err != nil {
		return err
	}
	r.AddComm(out.ExtSort.Comm)
	runs := 0
	for _, n := range out.ExtSort.RunsPerRank {
		runs += n
	}
	r.Spill = &SpillStats{
		Codec:        out.ExtSort.SpillCodec,
		Runs:         runs,
		BytesWritten: out.ExtSort.Spill.BytesWritten,
		BytesRead:    out.ExtSort.Spill.BytesRead,
	}
	r.SortedOut = out.ExtSort.Sorted
	return fastio.WriteStriped(r.FS, "k1", r.Codec(), r.Cfg.NFiles, out.ExtSort.Sorted)
}

// CacheTraits implements the optional staged-cache interface.  The
// distributed external sort materializes its merged output (unlike
// extsort's fully streaming kernel 1), so the sorted artifact is
// exchangeable on the default by-u path.  The SortEndVertices fallback
// above streams through the serial external sort and records no sorted
// artifact — a sorted-stage miss under that ablation deposits a
// delivered-not-cached failure, which concurrent waiters simply retry
// past; the matrix stage still serves warm runs.
func (distextVariant) CacheTraits() CacheTraits {
	return CacheTraits{SortedArtifact: true, MatrixArtifact: true}
}

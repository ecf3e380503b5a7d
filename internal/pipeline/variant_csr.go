package pipeline

// The csr variant is the hand-optimized implementation, the analogue of the
// paper's C++ code: custom TSV formatting/parsing, LSD radix sort, direct
// CSR construction from sorted edges, and the gather (transpose) PageRank
// engine.

import (
	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/sparse"
)

func init() { Register(csrVariant{}) }

type csrVariant struct{}

// Name implements Variant.
func (csrVariant) Name() string { return "csr" }

// Description implements Variant.
func (csrVariant) Description() string {
	return "optimized: custom TSV codec, radix sort, CSR build, gather PageRank (analogue of the paper's C++)"
}

// Kernel0 implements Variant.
func (csrVariant) Kernel0(r *Run) error {
	return writeSourcedEdges(r)
}

// Kernel1 implements Variant.
func (csrVariant) Kernel1(r *Run) error {
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	radixSort(r, l, r.Cfg.SortEndVertices)
	r.SortedOut = l
	return fastio.WriteStriped(r.FS, "k1", r.Codec(), r.Cfg.NFiles, l)
}

// Kernel2 implements Variant.
func (csrVariant) Kernel2(r *Run) error {
	l, err := sortedEdges(r)
	if err != nil {
		return err
	}
	a, err := sparse.FromSortedEdges(l, int(r.Cfg.N()))
	if err != nil {
		return err
	}
	r.MatrixMass = a.SumValues()
	ApplyKernel2Filter(a)
	r.Matrix = a
	return nil
}

// Kernel3 implements Variant.
func (csrVariant) Kernel3(r *Run) error {
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

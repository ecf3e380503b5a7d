package pipeline

// The coo variant is the deliberately straightforward implementation, the
// analogue of the paper's plain-Python code: standard-library text handling
// (fmt/strconv/bufio), the generic comparison sort, a hash-map triplet
// build, and the scatter PageRank engine.  It is the readability baseline
// the optimized variants are differential-tested against.

import (
	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/xsort"
)

func init() { Register(cooVariant{}) }

type cooVariant struct{}

// Name implements Variant.
func (cooVariant) Name() string { return "coo" }

// Description implements Variant.
func (cooVariant) Description() string {
	return "straightforward: strconv/bufio text I/O, comparison sort, map-based triplet build, scatter PageRank (analogue of the paper's Python)"
}

// Kernel0 implements Variant.
func (cooVariant) Kernel0(r *Run) error {
	return writeSourcedEdges(r)
}

// Kernel1 implements Variant.
func (cooVariant) Kernel1(r *Run) error {
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	if r.Cfg.SortEndVertices {
		xsort.ByUV(l)
	} else {
		xsort.ByUStable(l)
	}
	r.SortedOut = l
	return fastio.WriteStriped(r.FS, "k1", r.Codec(), r.Cfg.NFiles, l)
}

// Kernel2 implements Variant.
func (cooVariant) Kernel2(r *Run) error {
	l, err := sortedEdges(r)
	if err != nil {
		return err
	}
	// Hash-map accumulation, dictionary-of-counts style.
	counts := make(map[[2]uint64]float64, l.Len())
	for i := 0; i < l.Len(); i++ {
		counts[[2]uint64{l.U[i], l.V[i]}]++
	}
	rows := make([]int, 0, len(counts))
	cols := make([]int, 0, len(counts))
	vals := make([]float64, 0, len(counts))
	for k, c := range counts {
		rows = append(rows, int(k[0]))
		cols = append(cols, int(k[1]))
		vals = append(vals, c)
	}
	a, err := sparse.FromTriplets(int(r.Cfg.N()), rows, cols, vals)
	if err != nil {
		return err
	}
	r.MatrixMass = a.SumValues()
	ApplyKernel2Filter(a)
	r.Matrix = a
	return nil
}

// Kernel3 implements Variant.
func (cooVariant) Kernel3(r *Run) error {
	eng, err := pagerank.NewScatterEngine(r.Matrix, r.Cfg.PageRank)
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

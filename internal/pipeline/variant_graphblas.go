package pipeline

// The graphblas variant expresses kernels 2 and 3 entirely in GraphBLAS
// operations — build, reduce, select, apply, and a semiring vector-matrix
// product — the standards-oriented implementation the paper proposes so
// that "implementations using the GraphBLAS standard would enable
// comparison of the GraphBLAS capabilities with other technologies".

import (
	"fmt"

	"repro/internal/fastio"
	"repro/internal/graphblas"
	"repro/internal/pagerank"
	"repro/internal/sparse"
)

func init() { Register(graphblasVariant{}) }

type graphblasVariant struct{}

// Name implements Variant.
func (graphblasVariant) Name() string { return "graphblas" }

// Description implements Variant.
func (graphblasVariant) Description() string {
	return "kernels 2-3 expressed over generic GraphBLAS semiring operations (the paper's standards-oriented path)"
}

// Kernel0 implements Variant.
func (graphblasVariant) Kernel0(r *Run) error {
	return writeSourcedEdges(r)
}

// Kernel1 implements Variant.
func (graphblasVariant) Kernel1(r *Run) error {
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	radixSort(r, l, r.Cfg.SortEndVertices)
	r.SortedOut = l
	return fastio.WriteStriped(r.FS, "k1", r.Codec(), r.Cfg.NFiles, l)
}

// Kernel2 implements Variant.  Every step is a GraphBLAS primitive:
//
//	A    = GrB_Matrix_build(u, v, 1, +)      // counting matrix
//	din  = GrB_reduce(A, +, columns)         // in-degree
//	A    = GrB_select(A, din[j] not in {max, 1})
//	dout = GrB_reduce(A, +, rows)            // out-degree
//	A    = GrB_apply(A, v / dout[i])         // row normalization
func (graphblasVariant) Kernel2(r *Run) error {
	l, err := sortedEdges(r)
	if err != nil {
		return err
	}
	n := int(r.Cfg.N())
	m, err := graphblas.BuildFromEdges(n, l.U, l.V)
	if err != nil {
		return err
	}
	r.MatrixMass = m.ReduceAll(graphblas.PlusFloat64)
	din := m.ReduceCols(graphblas.PlusFloat64)
	maxDin := graphblas.ReduceVec(din, graphblas.MaxFloat64)
	filtered := m.Select(func(i, j int, v float64) bool {
		d := din[j]
		return d != maxDin && d != 1
	})
	dout := filtered.ReduceRows(graphblas.PlusFloat64)
	// Normalize by multiplying with the reciprocal, exactly like
	// sparse.ScaleRows: v/dout and v*(1/dout) round differently in the
	// last ulp, and the kernel-2 matrix must be bit-identical across
	// variants — it is the staged cache's exchange currency.
	filtered.Apply(func(i, j int, v float64) float64 {
		if dout[i] == 0 {
			return v
		}
		return v * (1 / dout[i])
	})
	r.GB = filtered
	// Convert to CSR as well so cross-variant checks and mixed-kernel
	// ablations can consume this variant's K2 output uniformly.
	rows, cols, vals := filtered.ExtractTuples()
	csr, err := sparse.FromTriplets(n, rows, cols, vals)
	if err != nil {
		return err
	}
	r.Matrix = csr
	return nil
}

// Kernel3 implements Variant.
func (graphblasVariant) Kernel3(r *Run) error {
	if r.GB == nil {
		if r.Matrix == nil {
			return fmt.Errorf("graphblas variant: kernel 3 requires kernel 2 output")
		}
		// A foreign variant produced K2's matrix; lift it to the generic
		// representation.
		gb, err := liftCSR(r.Matrix)
		if err != nil {
			return err
		}
		r.GB = gb
	}
	eng, err := pagerank.NewGraphBLASEngine(r.GB, r.Cfg.PageRank)
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

func liftCSR(a *sparse.CSR) (*graphblas.Matrix[float64], error) {
	rows := make([]int, 0, a.NNZ())
	cols := make([]int, 0, a.NNZ())
	vals := make([]float64, 0, a.NNZ())
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			rows = append(rows, i)
			cols = append(cols, int(a.Col[k]))
			vals = append(vals, a.Val[k])
		}
	}
	return graphblas.Build(a.N, rows, cols, vals, graphblas.PlusFloat64.Op)
}

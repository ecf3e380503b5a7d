package pipeline

// The columnar variant works a whole column at a time over the parallel
// (U, V) arrays — the analogue of the paper's Python-with-Pandas code,
// where every step is a vectorized dataframe operation.  Kernel 1 fully
// sorts by (u, v) so that kernel 2 becomes a single run-length-encoding
// scan, and kernel 2's degree computations are array-counting passes that
// never touch a per-row data structure.

import (
	"fmt"

	"repro/internal/sparse"
)

func init() { Register(columnarVariant{}) }

type columnarVariant struct{}

// Name implements Variant.
func (columnarVariant) Name() string { return "columnar" }

// Description implements Variant.
func (columnarVariant) Description() string {
	return "vectorized column-at-a-time array operations (analogue of the paper's Python with Pandas)"
}

// Kernel0 implements Variant.
func (columnarVariant) Kernel0(r *Run) error {
	return generateEdges(r)
}

// Kernel1 implements Variant.  The columnar pipeline always sorts fully by
// (u, v) — a (u, v)-sorted list is in particular sorted by u, so the
// kernel-1 contract holds, and the full order is what lets kernel 2 be one
// linear scan.
func (columnarVariant) Kernel1(r *Run) error {
	return sortKernel1(r, r.Cfg.RunEdges, true)
}

// Kernel2 implements Variant.  The column filter below rewrites the
// list in place; the list is the run's own.
func (columnarVariant) Kernel2(r *Run) error {
	l, err := readEdges(r, "k1")
	if err != nil {
		return err
	}
	n := int(r.Cfg.N())
	m := l.Len()
	r.MatrixMass = float64(m)
	// din over the V column: din[v] = number of edges ending at v, which
	// equals the column sum of the counting matrix.
	din := make([]float64, n)
	for _, v := range l.V {
		if v >= uint64(n) {
			return errOutOfRange(v, n)
		}
		din[v]++
	}
	maxDin := sparse.MaxValue(din)
	// Vectorized selection: keep edges whose target column survives.
	keepU := l.U[:0]
	keepV := l.V[:0]
	for i := 0; i < m; i++ {
		u, v := l.U[i], l.V[i]
		if u >= uint64(n) {
			return errOutOfRange(u, n)
		}
		d := din[v]
		if d == maxDin || d == 1 {
			continue
		}
		keepU = append(keepU, u)
		keepV = append(keepV, v)
	}
	l.U, l.V = keepU, keepV
	// dout over the retained U column.
	dout := make([]float64, n)
	for _, u := range l.U {
		dout[u]++
	}
	// The retained list is still (u, v)-sorted, so a single RLE scan
	// builds the matrix; normalize with the array-derived out-degrees.
	b, err := sparse.NewSortedBuilder(n)
	if err != nil {
		return err
	}
	b.Reserve(l.Len())
	for i := 0; i < l.Len(); i++ {
		if err := b.Add(l.U[i], l.V[i]); err != nil {
			return err
		}
	}
	a := b.Finish()
	a.ScaleRows(dout)
	r.Matrix = a
	return nil
}

// Kernel3 implements Variant.
func (columnarVariant) Kernel3(r *Run) error { return scatterKernel3(r) }

func errOutOfRange(v uint64, n int) error {
	return fmt.Errorf("pipeline: vertex %d out of range N=%d", v, n)
}

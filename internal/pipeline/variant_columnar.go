package pipeline

// The columnar variant works a whole column at a time over the parallel
// (U, V) arrays — the analogue of the paper's Python-with-Pandas code,
// where every step is a vectorized dataframe operation.  Kernel 1 fully
// sorts by (u, v) so that kernel 2 becomes a single run-length-encoding
// scan, and kernel 2's degree computations are array-counting passes that
// never touch a per-row data structure.

import (
	"fmt"

	"repro/internal/fastio"
	"repro/internal/pagerank"
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
	return writeSourcedEdges(r)
}

// Kernel1 implements Variant.  The columnar pipeline always sorts fully by
// (u, v) — a (u, v)-sorted list is in particular sorted by u, so the
// kernel-1 contract holds, and the full order is what lets kernel 2 be one
// linear scan.
func (columnarVariant) Kernel1(r *Run) error {
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	radixSort(r, l, true)
	r.SortedOut = l
	return fastio.WriteStriped(r.FS, "k1", r.Codec(), r.Cfg.NFiles, l)
}

// CacheTraits implements the optional staged-cache interface: this
// variant's kernel 1 always sorts by (u, v), so its sorted artifact is
// keyed as a (u, v)-ordered list and is exchangeable with the other
// variants' SortEndVertices runs.
func (columnarVariant) CacheTraits() CacheTraits {
	return CacheTraits{SortedArtifact: true, SortsByUV: true, MatrixArtifact: true}
}

// Kernel2 implements Variant.  The column filter below rewrites the
// list in place, so a cache-shared sorted artifact is deep-copied
// first (sortedEdgesMutable) to keep the resident copy pristine.
func (columnarVariant) Kernel2(r *Run) error {
	l, err := sortedEdgesMutable(r)
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
func (columnarVariant) Kernel3(r *Run) error {
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

func errOutOfRange(v uint64, n int) error {
	return fmt.Errorf("pipeline: vertex %d out of range N=%d", v, n)
}

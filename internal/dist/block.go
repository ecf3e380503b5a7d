package dist

// block is one rank's rectangular share of the global n×n matrix: the
// contiguous row block [lo, hi) in CSR layout with block-local row
// pointers.  Where the first-generation rankState kept a square n×n CSR
// per rank (O(p·n) row pointers across ranks), a block stores hi-lo+1
// pointers, so p ranks together hold exactly n+p — the storage a real
// distributed memory forces (DESIGN.md §5).
//
// Column indices still span the full [0, n) range: kernel 3's block
// product (the gather over the block's transpose, rankProduct) writes a
// full-length output vector, which is what the replicated-rank-vector
// schedule of the paper's §V analysis assumes.

import (
	"fmt"
	"sort"

	"repro/internal/edge"
	"repro/internal/sparse"
)

type block struct {
	// lo, hi delimit the owned global row range [lo, hi).
	lo, hi int
	// n is the global matrix dimension (the column space).
	n int
	// rowPtr has length hi-lo+1; local row i is global row lo+i.
	rowPtr []int64
	// col and val hold the stored entries of the owned rows.
	col []uint32
	val []float64
}

// rows returns the owned row count hi-lo.
func (b *block) rows() int { return b.hi - b.lo }

// nnz returns the stored-entry count of the block.
func (b *block) nnz() int { return len(b.col) }

// buildBlock constructs the counting sub-matrix of the rows [lo, hi) from
// an edge list whose start vertices all lie in that range (kernel 2's
// postcondition of the edge routing step).  The construction mirrors
// sparse.FromEdges — count, scatter, per-row sort, duplicate accumulation —
// so the assembled blocks equal the serial square build bit for bit.
func buildBlock(l *edge.List, n, lo, hi int) (*block, error) {
	b := &block{lo: lo, hi: hi, n: n, rowPtr: make([]int64, hi-lo+1)}
	m := l.Len()
	for _, u := range l.U {
		if int(u) < lo || int(u) >= hi {
			return nil, fmt.Errorf("dist: routed edge with start %d outside owned rows [%d,%d)", u, lo, hi)
		}
		b.rowPtr[int(u)-lo+1]++
	}
	for i := 0; i < b.rows(); i++ {
		b.rowPtr[i+1] += b.rowPtr[i]
	}
	cols := make([]uint32, m)
	next := append([]int64(nil), b.rowPtr[:b.rows()]...)
	for i := 0; i < m; i++ {
		v := l.V[i]
		if v >= uint64(n) {
			return nil, fmt.Errorf("dist: end vertex %d out of range N=%d", v, n)
		}
		li := int(l.U[i]) - lo
		cols[next[li]] = uint32(v)
		next[li]++
	}
	// Sort each row bucket and accumulate duplicates into counts, exactly
	// as sparse.compressRows does for the square build.
	outPtr := make([]int64, b.rows()+1)
	outCols := cols[:0] // compact in place: writes never overtake reads
	vals := make([]float64, 0, m)
	w := int64(0)
	for i := 0; i < b.rows(); i++ {
		row := cols[b.rowPtr[i]:b.rowPtr[i+1]]
		sortCols(row)
		for k := 0; k < len(row); {
			c := row[k]
			cnt := 1
			for k+cnt < len(row) && row[k+cnt] == c {
				cnt++
			}
			outCols = append(outCols[:w], c)
			vals = append(vals, float64(cnt))
			w++
			k += cnt
		}
		outPtr[i+1] = w
	}
	b.rowPtr = outPtr
	b.col = outCols[:w]
	b.val = vals
	return b, nil
}

// sortCols sorts a row's column bucket: insertion sort for the short rows
// that dominate Kronecker graphs, sort.Slice for hub rows (the same
// policy as sparse's row builder).
func sortCols(s []uint32) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// blockOf returns the [lo, hi) row block of a global matrix as a view
// sharing the Col/Val storage (row pointers are rebased into a fresh
// hi-lo+1 slice).
func blockOf(a *sparse.CSR, lo, hi int) *block {
	loPtr := a.RowPtr[lo]
	rowPtr := make([]int64, hi-lo+1)
	for i := lo; i <= hi; i++ {
		rowPtr[i-lo] = a.RowPtr[i] - loPtr
	}
	return &block{
		lo: lo, hi: hi, n: a.N,
		rowPtr: rowPtr,
		col:    a.Col[loPtr:a.RowPtr[hi]],
		val:    a.Val[loPtr:a.RowPtr[hi]],
	}
}

// sumValues returns the sum of the block's stored values.
func (b *block) sumValues() float64 {
	var s float64
	for _, v := range b.val {
		s += v
	}
	return s
}

// inDegrees returns the block's contribution to the global column sums
// din = sum(A, 1) as a full-length n vector — the payload of kernel 2's
// in-degree all-reduce.
func (b *block) inDegrees() []float64 {
	din := make([]float64, b.n)
	for k, c := range b.col {
		din[c] += b.val[k]
	}
	return din
}

// outDegrees returns the row sums of the owned rows as a local-length
// (hi-lo) vector; local index i is global row lo+i.
func (b *block) outDegrees() []float64 {
	dout := make([]float64, b.rows())
	for i := range dout {
		var s float64
		for k := b.rowPtr[i]; k < b.rowPtr[i+1]; k++ {
			s += b.val[k]
		}
		dout[i] = s
	}
	return dout
}

// zeroColumns zeroes every stored entry whose column is masked, leaving
// explicit zeros for compact to drop.
func (b *block) zeroColumns(mask []bool) {
	for k, c := range b.col {
		if mask[c] {
			b.val[k] = 0
		}
	}
}

// compact removes stored zeros, preserving order.
func (b *block) compact() {
	w := int64(0)
	read := int64(0)
	for i := 0; i < b.rows(); i++ {
		hi := b.rowPtr[i+1]
		for ; read < hi; read++ {
			if b.val[read] != 0 {
				b.col[w] = b.col[read]
				b.val[w] = b.val[read]
				w++
			}
		}
		b.rowPtr[i+1] = w
	}
	b.col = b.col[:w]
	b.val = b.val[:w]
}

// scaleRows divides row i by dout[i] wherever dout[i] is non-zero: the
// kernel-2 normalization, applied block-locally (dout is local-length).
func (b *block) scaleRows(dout []float64) {
	for i := 0; i < b.rows(); i++ {
		s := dout[i]
		if s == 0 {
			continue
		}
		inv := 1 / s
		for k := b.rowPtr[i]; k < b.rowPtr[i+1]; k++ {
			b.val[k] *= inv
		}
	}
}

// appendTo appends the block's rows to a global CSR under assembly; blocks
// must be appended in rank order.
func (b *block) appendTo(out *sparse.CSR) {
	for i := 0; i < b.rows(); i++ {
		lo, hi := b.rowPtr[i], b.rowPtr[i+1]
		out.Col = append(out.Col, b.col[lo:hi]...)
		out.Val = append(out.Val, b.val[lo:hi]...)
		out.RowPtr[b.lo+i+1] = int64(len(out.Col))
	}
}

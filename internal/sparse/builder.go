package sparse

import (
	"fmt"
	"slices"
)

// SortedBuilder assembles a CSR incrementally from an edge stream sorted by
// start vertex — the out-of-core kernel-2 path, which must not materialize
// the edge list.  Duplicate (u, v) pairs accumulate into counts exactly as
// in FromEdges.  Memory use is O(N + NNZ): the matrix under construction
// plus one row's worth of staging.
type SortedBuilder struct {
	n      int
	rowPtr []int64
	cols   []uint32
	vals   []float64

	curRow  int64 // row currently being staged; -1 before the first edge
	staging []uint32
	scratch []uint32 // sortUint32's, regrown to the longest row staged so far
}

// NewSortedBuilder returns a builder for an n×n matrix.
func NewSortedBuilder(n int) (*SortedBuilder, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	return &SortedBuilder{n: n, rowPtr: make([]int64, n+1), curRow: -1}, nil
}

// Reserve makes room for m more edges' entries, so that a caller who knows
// the stream's length (an upper bound on NNZ) pays for Col and Val once,
// not by append's doubling — whose copies are a tenth of an out-of-core
// kernel 2.
func (b *SortedBuilder) Reserve(m int) {
	b.cols = slices.Grow(b.cols, m)
	b.vals = slices.Grow(b.vals, m)
}

// Add appends the edge (u, v).  u must be non-decreasing across calls.
func (b *SortedBuilder) Add(u, v uint64) error {
	if u >= uint64(b.n) || v >= uint64(b.n) {
		return fmt.Errorf("sparse: edge (%d,%d) out of range N=%d", u, v, b.n)
	}
	if int64(u) < b.curRow {
		return fmt.Errorf("sparse: SortedBuilder received start vertex %d after %d (input not sorted)", u, b.curRow)
	}
	if int64(u) != b.curRow {
		b.flushRow()
		b.curRow = int64(u)
	}
	b.staging = append(b.staging, uint32(v))
	return nil
}

// flushRow compresses the staged row into the matrix.
func (b *SortedBuilder) flushRow() {
	if b.curRow < 0 || len(b.staging) == 0 {
		return
	}
	if len(b.staging) >= radixRowLen && cap(b.scratch) < len(b.staging) {
		b.scratch = make([]uint32, cap(b.staging))
	}
	sortUint32(b.staging, b.scratch)
	b.cols, b.vals = appendRuns(b.cols, b.vals, b.staging)
	b.rowPtr[b.curRow+1] = int64(len(b.cols))
	b.staging = b.staging[:0]
}

// Finish completes construction and returns the matrix.  The builder must
// not be used afterwards.
func (b *SortedBuilder) Finish() *CSR {
	b.flushRow()
	for i := 0; i < b.n; i++ {
		if b.rowPtr[i+1] < b.rowPtr[i] {
			b.rowPtr[i+1] = b.rowPtr[i]
		}
	}
	return &CSR{N: b.n, RowPtr: b.rowPtr, Col: b.cols, Val: b.vals}
}

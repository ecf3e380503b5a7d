package dist

// Distributed kernels 2 and 3: 1D row-block decomposition.  Each processor
// owns a contiguous block of rows of the adjacency matrix; kernel 2 routes
// edges to the row owner, builds the block-local counting matrix,
// all-reduces the in-degree vector to apply the paper's super-node/leaf
// filter globally, and normalizes rows locally.  Kernel 3 keeps the rank
// vector replicated: every iteration each processor computes the partial
// product of its row block and the partials are summed by one all-reduce —
// the communication pattern whose closed form the paper derives and
// PredictedCommBytes reproduces.
//
// This file holds the result types and the purely local steps of that
// schedule; rank.go is the schedule itself — the one rank program every
// execution mode runs (DESIGN.md §5).

import (
	"fmt"

	"repro/internal/edge"
	"repro/internal/sparse"
)

// Result is the outcome of a distributed kernel-2/kernel-3 run.
type Result struct {
	// Rank is the final rank vector, matching the serial engines to ~1e-12.
	Rank []float64
	// NNZ is the global stored-entry count of the filtered matrix.
	NNZ int
	// Comm is the full communication record of the run.
	Comm CommStats
	// Iterations is the number of PageRank update steps performed.
	Iterations int
	// RankSeconds is each rank's wall-clock execution time; perfmodel's
	// CompareRankElapsed relates it to the parallel hardware model.
	RankSeconds []float64
	// Checkpoint reports what the checkpoint/restart machinery did; nil
	// when the Spec enabled neither checkpointing nor resume.
	Checkpoint *CheckpointStats
	// Wire is the measured socket traffic, summed over the workers' mesh
	// links (ExecSocket only, else nil).  Wire.DataBytes equals Comm's
	// total byte count identically — the metered model tested against an
	// actual network.
	Wire *WireStats
}

// BuildResult is the outcome of the distributed kernel 2 alone.
type BuildResult struct {
	// Matrix is the assembled global filtered, normalized matrix — bit-for-
	// bit equal to the serial kernel-2 output (sparse.FromEdges followed by
	// the kernel-2 filter), because row blocks are disjoint and integer
	// degree sums are exact.
	Matrix *sparse.CSR
	// Mass is sum(A) before filtering (equals M for a full edge list).
	Mass float64
	// NNZ is the filtered stored-entry count.
	NNZ int
	// Comm records the edge routing and the in-degree all-reduce.
	Comm CommStats
	// Wire is the measured socket traffic (ExecSocket only, else nil).
	Wire *WireStats
}

// rankState is one processor's share of the matrix: the row block [lo,
// lo+blk.Rows()) as a block-local sparse.CSR (hi-lo+1 row pointers, local
// row i is global row lo+i, columns span all n) plus the owned dangling
// rows.  p ranks together hold n+p row pointers, the footprint a real
// distributed memory forces.
type rankState struct {
	lo  int
	blk *sparse.CSR
	// danglingRows lists owned rows (global indices) with zero out-degree
	// after filtering.
	danglingRows []int
}

// rankOperand is what one rank's kernel 3 reads: the owned row range,
// the row block's length-ordered transpose (whose columns are the block's
// local rows, so a product gathers from r[lo:hi]) and the owned dangling
// rows.  A socket worker keeps it resident in place of the row block.
type rankOperand struct {
	lo, hi       int
	at           *sparse.Ordered
	danglingRows []int
}

// operand builds the rank's kernel-3 operand from its row block; the
// block is only read.
func (st *rankState) operand() *rankOperand {
	b := st.blk
	return &rankOperand{
		lo: st.lo, hi: st.lo + b.Rows(), danglingRows: st.danglingRows,
		at: sparse.TransposeOrdered(b.N, b.RowPtr, b.Col, b.Val),
	}
}

// danglingRowsOf lists the rows with zero out-degree, as global indices:
// dout holds the out-degrees of the rows from lo on.
func danglingRowsOf(lo int, dout []float64) []int {
	var rows []int
	for i, d := range dout {
		if d == 0 {
			rows = append(rows, lo+i)
		}
	}
	return rows
}

// validateVertices checks that every endpoint of l is a vertex of an
// n-vertex graph — Execute's precondition for the kernel-2 programs,
// checked before any rank starts so a bad edge cannot fail one rank
// mid-collective.
func validateVertices(l *edge.List, n int) error {
	for i := 0; i < l.Len(); i++ {
		if l.U[i] >= uint64(n) || l.V[i] >= uint64(n) {
			return fmt.Errorf("dist: edge (%d,%d) out of range N=%d", l.U[i], l.V[i], n)
		}
	}
	return nil
}

// routeChunk partitions one rank's input chunk l by row owner, appending
// to the p per-destination outboxes — the local half of the kernel-2
// all-to-all.
func routeChunk(out []*edge.List, l *edge.List, n, p int) {
	for i := 0; i < l.Len(); i++ {
		d := blockOwner(n, p, int(l.U[i]))
		out[d].Append(l.U[i], l.V[i])
	}
}

// filterBlock applies the kernel-2 filter to one rank's block given the
// globally reduced in-degree vector, and records the owned dangling rows
// — the purely local step between the in-degree all-reduce and the NNZ
// reduction.  The filter is the serial kernel 2's own row pass
// (sparse.CSR.FilterRows, the body of CSR.Kernel2Filter), with the column
// mask derived from the global din by sparse.Kernel2Mask:
//
//	din = sum(A,1); zero columns with din == max(din) or din == 1;
//	compact; divide each non-empty row by its out-degree.
//
// Degree sums are integer counts, so the all-reduced din is exact and the
// distributed filter is bit-identical to the serial one.  The stored
// counts are positive, so the rows of zero out-degree are the rows the
// filter left empty.
func filterBlock(st *rankState, din []float64) {
	mask, _, _, _ := sparse.Kernel2Mask(din)
	st.blk.FilterRows(mask)
	for i := range st.blk.Rows() {
		if st.blk.RowPtr[i] == st.blk.RowPtr[i+1] {
			st.danglingRows = append(st.danglingRows, st.lo+i)
		}
	}
}

// splitMatrix views a global matrix as p row-block rankStates sharing the
// original Col/Val storage.
func splitMatrix(a *sparse.CSR, p int) []*rankState {
	states := make([]*rankState, p)
	dout := a.OutDegrees()
	for r := range states {
		lo, hi := blockBounds(a.N, p, r)
		states[r] = &rankState{lo: lo, blk: a.RowBlock(lo, hi), danglingRows: danglingRowsOf(lo, dout[lo:hi])}
	}
	return states
}

// assemble concatenates the row blocks, in rank order, back into one
// global CSR of n columns; the blocks must tile the rows [0, n).
func assemble(states []*rankState, n int) *sparse.CSR {
	nnz := 0
	for _, st := range states {
		nnz += st.blk.NNZ()
	}
	out := &sparse.CSR{
		N:      n,
		RowPtr: make([]int64, 1, n+1),
		Col:    make([]uint32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for _, st := range states {
		base := int64(len(out.Col))
		for _, e := range st.blk.RowPtr[1:] {
			out.RowPtr = append(out.RowPtr, base+e)
		}
		out.Col = append(out.Col, st.blk.Col...)
		out.Val = append(out.Val, st.blk.Val...)
	}
	return out
}

// danglingMassOf sums the rank mass sitting on one rank's owned dangling
// rows — the local contribution to the dangling-mass scalar all-reduce.
func danglingMassOf(op *rankOperand, r []float64) float64 {
	var s float64
	for _, i := range op.danglingRows {
		s += r[i]
	}
	return s
}

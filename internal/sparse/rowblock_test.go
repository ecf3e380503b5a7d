package sparse

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/edge"
	"repro/internal/kronecker"
)

// rowBlockGraph is a scale-8 Kronecker graph in generator order (unsorted)
// with its first 300 edges appended again, so every row block sees
// duplicates however the generator's own collide.
func rowBlockGraph(t *testing.T) (*edge.List, int) {
	t.Helper()
	cfg := kronecker.New(8, 11)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		l.Append(l.U[i], l.V[i])
	}
	return l, int(cfg.N())
}

// rowsOf returns the edges of l that start in [lo, hi), in input order:
// what a distributed rank receives after the kernel-2 routing step.
func rowsOf(l *edge.List, lo, hi int) *edge.List {
	out := edge.NewList(0)
	for i, u := range l.U {
		if int(u) >= lo && int(u) < hi {
			out.Append(u, l.V[i])
		}
	}
	return out
}

// sameCSR reports the first difference between two matrices in N,
// RowPtr, Col or the bits of Val.
func sameCSR(got, want *CSR) error {
	switch {
	case got.N != want.N:
		return fmt.Errorf("N = %d, want %d", got.N, want.N)
	case !slices.Equal(got.RowPtr, want.RowPtr):
		return fmt.Errorf("RowPtr differs")
	case !slices.Equal(got.Col, want.Col):
		return fmt.Errorf("Col differs")
	case len(got.Val) != len(want.Val):
		return fmt.Errorf("%d values, want %d", len(got.Val), len(want.Val))
	}
	for k := range got.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("Val[%d] = %v, want %v", k, got.Val[k], want.Val[k])
		}
	}
	return nil
}

// filterRows is kernel 2's filter on a matrix of any row count, with the
// column mask taken from the global in-degrees din; it returns the rows'
// out-degrees.
func filterRows(a *CSR, din []float64) []float64 {
	mask, _, _, _ := Kernel2Mask(din)
	a.ZeroColumns(mask)
	a.Compact()
	dout := a.OutDegrees()
	a.ScaleRows(dout)
	return dout
}

// TestRowBlockBuildAndFilterMatchSquare holds every rank's row block, for
// p ∈ {1,2,3,5,8}, to the same rows of the square build: FromEdgeRows
// over the rank's edges equals FromEdges(l).RowBlock(lo, hi) bit for
// bit, and the filter steps applied to the block with the global
// in-degrees give exactly the square filter's rows and out-degrees.
func TestRowBlockBuildAndFilterMatchSquare(t *testing.T) {
	l, n := rowBlockGraph(t)
	square, err := FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	din := square.InDegrees()
	filtered := square.Clone()
	dout := filterRows(filtered, din)
	for _, p := range []int{1, 2, 3, 5, 8} {
		for r := 0; r < p; r++ {
			lo, hi := r*n/p, (r+1)*n/p
			name := fmt.Sprintf("p=%d rank %d rows [%d,%d)", p, r, lo, hi)
			blk, err := FromEdgeRows(rowsOf(l, lo, hi), n, lo, hi)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := blk.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if blk.Rows() != hi-lo {
				t.Fatalf("%s: %d rows", name, blk.Rows())
			}
			if err := sameCSR(blk, square.RowBlock(lo, hi)); err != nil {
				t.Fatalf("%s build: %v", name, err)
			}
			blkDout := filterRows(blk, din)
			if err := sameCSR(blk, filtered.RowBlock(lo, hi)); err != nil {
				t.Fatalf("%s filter: %v", name, err)
			}
			if !slices.Equal(blkDout, dout[lo:hi]) {
				t.Fatalf("%s: out-degrees differ from the square filter's", name)
			}
		}
	}
}

// TestRowBlockEdgeCases covers the blocks the property test does not
// reach: blocks of zero rows (lo == hi, including at either end), a start
// vertex outside the block on either side, bad row ranges, and a row
// view's independence of later appends.
func TestRowBlockEdgeCases(t *testing.T) {
	l, n := rowBlockGraph(t)
	square, err := FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, lo := range []int{0, 7, n} {
		blk, err := FromEdgeRows(edge.NewList(0), n, lo, lo)
		if err != nil {
			t.Fatalf("empty block at %d: %v", lo, err)
		}
		if blk.Rows() != 0 || blk.NNZ() != 0 || blk.N != n || blk.Validate() != nil {
			t.Fatalf("empty block at %d: %d rows, %d entries, N = %d", lo, blk.Rows(), blk.NNZ(), blk.N)
		}
		if err := sameCSR(blk, square.RowBlock(lo, lo)); err != nil {
			t.Fatalf("empty block at %d: %v", lo, err)
		}
		if dout := filterRows(blk, square.InDegrees()); len(dout) != 0 || blk.Rows() != 0 {
			t.Fatalf("empty block at %d: filter gave %d out-degrees, %d rows", lo, len(dout), blk.Rows())
		}
	}
	lo, hi := n/4, n/2
	for _, u := range []uint64{uint64(lo - 1), uint64(hi), uint64(n)} {
		in := rowsOf(l, lo, hi)
		in.Append(u, 0)
		if _, err := FromEdgeRows(in, n, lo, hi); err == nil {
			t.Errorf("start vertex %d accepted into rows [%d,%d)", u, lo, hi)
		}
	}
	in := rowsOf(l, lo, hi)
	in.Append(uint64(lo), uint64(n))
	if _, err := FromEdgeRows(in, n, lo, hi); err == nil {
		t.Errorf("end vertex %d accepted with N = %d", n, n)
	}
	for _, rows := range [][2]int{{-1, 3}, {5, 4}, {0, n + 1}} {
		if _, err := FromEdgeRows(edge.NewList(0), n, rows[0], rows[1]); err == nil {
			t.Errorf("rows [%d,%d) of N = %d accepted", rows[0], rows[1], n)
		}
	}
	view := square.RowBlock(lo, hi)
	next := square.Col[square.RowPtr[hi]]
	view.Col = append(view.Col, 0)
	if square.Col[square.RowPtr[hi]] != next {
		t.Error("an append to a row view overwrote the next row of the matrix")
	}
}

// TestRowBlockValidateRejectsCorruption corrupts a genuine row block —
// one that does not start at row 0 — in each of the ways Validate must
// catch, the checks a coordinator relies on for blocks from a socket.
func TestRowBlockValidateRejectsCorruption(t *testing.T) {
	l, n := rowBlockGraph(t)
	lo, hi := n/3, 2*n/3
	genuine, err := FromEdgeRows(rowsOf(l, lo, hi), n, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := genuine.Validate(); err != nil {
		t.Fatal(err)
	}
	long := -1 // a row of two or more entries
	for i := 0; i < genuine.Rows() && long < 0; i++ {
		if genuine.RowPtr[i+1]-genuine.RowPtr[i] >= 2 {
			long = i
		}
	}
	if long < 0 {
		t.Fatal("no row with two entries")
	}
	for name, corrupt := range map[string]func(b *CSR){
		"no row pointers":            func(b *CSR) { b.RowPtr = nil },
		"first pointer not zero":     func(b *CSR) { b.RowPtr[0] = 1 },
		"last pointer not NNZ":       func(b *CSR) { b.RowPtr[b.Rows()]-- },
		"pointer past the entries":   func(b *CSR) { b.RowPtr[1] = int64(b.NNZ() + 1) },
		"pointers descending":        func(b *CSR) { b.RowPtr[1] = -1 },
		"values shorter than cols":   func(b *CSR) { b.Val = b.Val[1:] },
		"column out of range":        func(b *CSR) { b.Col[0] = uint32(n) },
		"column dimension too small": func(b *CSR) { b.N = 1 },
		"columns repeated": func(b *CSR) {
			k := b.RowPtr[long]
			b.Col[k+1] = b.Col[k]
		},
	} {
		b := genuine.Clone()
		corrupt(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupted block", name)
		}
	}
}

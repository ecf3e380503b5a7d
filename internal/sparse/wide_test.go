package sparse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/workteam"
)

// buildInPieces builds l, sorted by start vertex, with a Builder fed the
// pieces l[bounds[c]:bounds[c+1]] on a workteam.Wide ring of width
// workers, as fastio.ReadPieces feeds it, with Col and Val reserved for
// reserve entries.
func buildInPieces(l *edge.List, n int, bounds []int, workers, reserve int) (*CSR, error) {
	b, err := NewBuilder(n)
	if err != nil {
		return nil, err
	}
	if reserve > 0 {
		b.Reserve(reserve)
	}
	var errs []error
	r := workteam.Wide(workers, func(c int) {
		lo, hi := bounds[c], bounds[c+1]
		errs[c%len(errs)] = b.Piece(c%len(errs), lo, l.U[lo:hi], l.V[lo:hi])
	})
	errs = make([]error, r.Slots())
	b.Start(r.Slots())
	var first error
	take := func() {
		slot := r.Wait() % len(errs)
		if first == nil {
			first = b.Take(slot, errs[slot])
		}
	}
	for c := 0; c+1 < len(bounds) && first == nil; c++ {
		if r.InFlight() == r.Slots() {
			take()
		}
		if first == nil {
			r.Put()
		}
	}
	for r.InFlight() > 0 {
		take()
	}
	r.Close()
	if first != nil {
		return nil, first
	}
	return b.Finish(), nil
}

// serialFilter is kernel 2's filter step by step, the reference the fused
// Kernel2Filter must equal.
func serialFilter(a *CSR) FilterStats {
	var st FilterStats
	mask, maxDin, superNodes, leaves := Kernel2Mask(a.InDegrees())
	st.MaxInDegree, st.SuperNodeColumns, st.LeafColumns = maxDin, superNodes, leaves
	st.EntriesZeroed = a.ZeroColumns(mask)
	a.Compact()
	a.ScaleRows(a.OutDegrees())
	return st
}

// transposeWide is TransposeOrderedWide at exactly width workers, however
// few entries a holds.
func transposeWide(a *CSR, width int) *Ordered {
	return transposeOrdered(a.N, a.RowPtr, a.Col, a.Val, true, width)
}

// sameBits reports whether a and b hold the same matrix, bit for bit.
func sameBits(a, b *CSR) bool {
	return a.N == b.N && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.Col, b.Col) &&
		slices.EqualFunc(a.Val, b.Val, sameFloatBits)
}

// sameOrdered reports whether two operands hold the same arrays, bit for
// bit.
func sameOrdered(a, b *Ordered) bool {
	return slices.Equal(a.Label, b.Label) && slices.Equal(a.Rows, b.Rows) && slices.Equal(a.Ptr, b.Ptr) &&
		slices.Equal(a.Col, b.Col) && slices.Equal(a.Src, b.Src) &&
		slices.EqualFunc(a.Scale, b.Scale, sameFloatBits) && slices.EqualFunc(a.Extra, b.Extra, sameFloatBits)
}

// kernel2Input decodes a fuzz input: an n, a width, a reserve mode, a
// fault, then two bytes per edge — the first steps u (its low two bits
// zero: to the next row, its top two bits rows skipped) and cuts a piece
// after the edge (bit 2), the second is v mod n.  So rows repeat (hub
// rows, duplicates at small n), rows are empty, and pieces of any length
// cut anywhere.  A fault of 1, 2 or 3 puts an edge out of order, v out of
// range or u out of range, at an edge the input names.
func kernel2Input(data []byte) (l *edge.List, n int, bounds []int, workers, reserve int) {
	n, workers, mode, fault, at := 1+int(data[0])%40, 1+int(data[1])%3, data[2]%3, data[3]%4, int(data[4])
	l = edge.NewList(0)
	bounds = []int{0}
	u := uint64(0)
	for data = data[5:]; len(data) >= 2; data = data[2:] {
		if data[0]&3 == 0 {
			u += 1 + uint64(data[0]>>6)
		}
		if u >= uint64(n) {
			break
		}
		l.Append(u, uint64(data[1])%uint64(n))
		if data[0]&4 != 0 {
			bounds = append(bounds, l.Len())
		}
	}
	if bounds[len(bounds)-1] != l.Len() {
		bounds = append(bounds, l.Len())
	}
	if l.Len() > 0 {
		switch at %= l.Len(); fault {
		case 1:
			if l.U[at] > 0 && at > 0 && l.U[at-1] > 0 {
				l.U[at] = l.U[at-1] - 1
			}
		case 2:
			l.V[at] = uint64(n) + 1
		case 3:
			l.U[at] = uint64(n)
		}
	}
	switch mode {
	case 0:
		reserve = l.Len()
	case 1:
		reserve = l.Len() / 2
	}
	return l, n, bounds, workers, reserve
}

// FuzzKernel2Wide holds kernel 2 and the K3 set-up at widths 1–3 to their
// serial definitions, bit for bit: a Builder fed a u-sorted list in pieces
// cut anywhere, on a ring as fastio.ReadPieces runs it, with Col and Val
// reserved for every edge, half of them or none, must build FromEdges'
// matrix; the filter at the width must equal the step-by-step filter,
// statistics included; and the transpose at the width must equal
// TransposeOrdered.  With a bad edge, the build's error must be the one
// SortedBuilder returns for that edge, added one at a time.
func FuzzKernel2Wide(f *testing.F) {
	f.Add([]byte{7, 1, 0, 0, 0, 0, 1, 4, 2, 1, 3, 0, 4, 5, 1, 1, 6, 4, 6, 0, 2})
	f.Add([]byte{3, 2, 1, 0, 0, 1, 0, 5, 1, 5, 2, 5, 0, 5, 1, 5, 2, 5, 0, 1, 1, 0, 2})
	f.Add([]byte{30, 2, 2, 0, 0, 0x40, 9, 5, 9, 5, 9, 4, 8, 0x80, 7, 5, 7, 1, 7, 5, 1, 0xc0, 3, 4, 29})
	f.Add([]byte{12, 0, 0, 1, 9, 0, 3, 5, 4, 1, 5, 4, 6, 0, 7, 5, 8, 1, 9, 0, 10, 4, 11})
	f.Add([]byte{12, 1, 1, 2, 3, 0, 3, 5, 4, 1, 5, 4, 6, 0, 7, 5, 8, 1, 9})
	f.Add([]byte{12, 2, 0, 3, 6, 0, 3, 5, 4, 1, 5, 4, 6, 0, 7, 5, 8, 1, 9})
	f.Add([]byte{12, 1, 0, 1, 4, 0, 3, 1, 4, 4, 5, 5, 6, 0, 7, 1, 1}) // unsorted at a piece's start
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		l, n, bounds, workers, reserve := kernel2Input(data)
		var want error
		sb, err := NewSortedBuilder(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range l.U {
			if want = sb.Add(l.U[i], l.V[i]); want != nil {
				break
			}
		}
		got, err := buildInPieces(l, n, bounds, workers, reserve)
		if want != nil || err != nil {
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("w%d pieces %v: error %v, one edge at a time %v", workers, bounds, err, want)
			}
			return
		}
		ref, err := FromEdges(l, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, ref) {
			t.Fatalf("w%d pieces %v: built %v, FromEdges %v", workers, bounds, got, ref)
		}
		if !sameBits(got, sb.Finish()) {
			t.Fatalf("w%d: the pieces' matrix is not SortedBuilder's", workers)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		wantSt, gotSt := serialFilter(ref), got.kernel2Filter(workers)
		if gotSt != wantSt || !sameBits(got, ref) {
			t.Fatalf("w%d: filter %+v / %v, step by step %+v / %v", workers, gotSt, got, wantSt, ref)
		}
		if !sameOrdered(transposeWide(got, workers), ref.TransposeOrdered()) {
			t.Fatalf("w%d: the wide ordered transpose differs", workers)
		}
	})
}

// TestWideWidthOneStartsNoGoroutine: at width 1 the filter and the
// transpose run on the caller's goroutine; wider, on a team whose
// goroutines are gone soon after they return.
func TestWideWidthOneStartsNoGoroutine(t *testing.T) {
	a := randomCSR(t, 3, 4000, 300)
	for _, workers := range []int{1, 3} {
		b := a.Clone()
		b.kernel2Filter(workers)
		transposeWide(b, workers)
		// A closed team's goroutines exit on their own time.
		for deadline := time.Now().Add(10 * time.Second); teamGoroutines() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("w%d: %d team goroutines left", workers, teamGoroutines())
			}
		}
	}
}

// teamGoroutines counts the live goroutines workteam.New started.
func teamGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by repro/internal/workteam.New")
}

// TestKernel2FilterWideStats: on a counting matrix with hub columns, leaves
// and rows split across every width's ranges, the filter at widths 1, 2,
// 3 and 8 equals the step-by-step filter, and the transpose equals width
// 1's.
func TestKernel2FilterWideStats(t *testing.T) {
	l := kroneckerSorted(t, 10)
	ref, err := FromEdges(l, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	built := ref.Clone()
	wantSt := serialFilter(ref)
	wantT := ref.TransposeOrdered()
	for _, workers := range []int{1, 2, 3, 8} {
		a := built.Clone()
		if st := a.kernel2Filter(workers); st != wantSt || !sameBits(a, ref) {
			t.Errorf("w%d: filter %+v, step by step %+v (matrix equal: %v)", workers, st, wantSt, sameBits(a, ref))
		}
		if !sameOrdered(transposeWide(a, workers), wantT) {
			t.Errorf("w%d: the ordered transpose differs from width 1's", workers)
		}
	}
	if wantSt.EntriesZeroed == 0 || wantSt.LeafColumns == 0 || math.IsNaN(wantSt.MaxInDegree) {
		t.Errorf("the graph exercises too little of the filter: %+v", wantSt)
	}
}

// TestVectorWidthCap: the filter and the transpose give every worker but
// the first an N-vector, so their width stops where those vectors would
// pass an eighth of the entries, on any number of cores; the filter and
// the transpose at 16 workers allocate no more than at that cap.
func TestVectorWidthCap(t *testing.T) {
	for _, c := range []struct {
		workers, n int
		nnz        int64
		want       int
	}{
		{16, 1000, 15000, 2}, {16, 1000, 32000, 5}, {2, 1000, 8000, 2}, {2, 1000, 7999, 1}, {8, 100, 0, 1},
		{3, 0, 0, 3}, {1, 10, 1 << 20, 1},
	} {
		if got := vectorWidth(c.workers, c.n, c.nnz); got != c.want {
			t.Errorf("vectorWidth(%d, %d, %d) = %d, want %d", c.workers, c.n, c.nnz, got, c.want)
		}
	}
	a := randomCSR(t, 4, 30000, 2000) // 15 entries a row: width 2 at most
	allocated := func(workers int) uint64 {
		b := a.Clone()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.Kernel2Filter(workers)
		b.TransposeOrderedWide(workers)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if at2, at16 := allocated(2), allocated(16); at16 > at2+at2/8 {
		t.Errorf("16 workers allocate %d bytes, 2 workers %d", at16, at2)
	}
}

package sparse

import (
	"math"
	"slices"
	"testing"

	"repro/internal/edge"
	"repro/internal/kronecker"
	"repro/internal/xrand"
)

// kroneckerSorted returns the scale-S benchmark graph sorted by start
// vertex (stably, like kernel 1), the input of kernel 2.
func kroneckerSorted(t testing.TB, scale int) *edge.List {
	t.Helper()
	l, err := kronecker.Generate(kronecker.New(scale, 1))
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, l.Len())
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return int(l.U[a]) - int(l.U[b]) })
	s := edge.Make(l.Len())
	for i, j := range idx {
		s.U[i], s.V[i] = l.U[j], l.V[j]
	}
	return s
}

func buildSorted(t testing.TB, l *edge.List, n int) *CSR {
	b, err := NewSortedBuilder(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l.U {
		if err := b.Add(l.U[i], l.V[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// TestFromSortedEdgesAllocs pins kernel 2's construction the way §7 pins
// kernel 3's iteration: a constant number of allocations, whatever the
// scale — two scratch arrays, the radix tier's scratch (one slice as long
// as the longest row, not one per hub row), RowPtr, Col, Val and the CSR
// header, each made once at its final size.  (It was one closure and one
// reflection swapper per row of 24+ entries: 13 813 allocations at scale
// 16.)
func TestFromSortedEdgesAllocs(t *testing.T) {
	var at [2]float64
	for i, scale := range []int{8, 12} {
		l := kroneckerSorted(t, scale)
		at[i] = testing.AllocsPerRun(5, func() {
			if _, err := FromSortedEdges(l, 1<<scale); err != nil {
				t.Fatal(err)
			}
		})
		a, _ := FromSortedEdges(l, 1<<scale)
		if cap(a.Col) != a.NNZ() || cap(a.Val) != a.NNZ() {
			t.Errorf("scale %d: Col/Val capacity %d/%d for %d entries, want exact", scale, cap(a.Col), cap(a.Val), a.NNZ())
		}
	}
	if at[1] != 7 || at[0] != at[1] {
		t.Errorf("FromSortedEdges: %v allocations at scale 8, %v at scale 12; want 7 at both", at[0], at[1])
	}
}

// TestSortedBuilderAllocs: the streaming builder cannot know NNZ ahead, so
// its three growing arrays (Col, Val, the row staging) cost append's
// geometric regrowth — O(log nnz) allocations, none per row or per edge.
func TestSortedBuilderAllocs(t *testing.T) {
	var at [2]float64
	var nnz [2]int
	for i, scale := range []int{8, 12} {
		l := kroneckerSorted(t, scale)
		nnz[i] = buildSorted(t, l, 1<<scale).NNZ()
		at[i] = testing.AllocsPerRun(5, func() { buildSorted(t, l, 1<<scale) })
	}
	// append grows large slices by at least 1.25×: at most log₁.₂₅ of the
	// size ratio more steps for each of the three arrays.
	extra := 3 * (math.Log(float64(nnz[1])/float64(nnz[0]))/math.Log(1.25) + 1)
	if at[0] > 64 || at[1] > at[0]+extra {
		t.Errorf("SortedBuilder: %v allocations for %d entries, %v for %d; want O(log nnz) (≤ %v + %.0f)",
			at[0], nnz[0], at[1], nnz[1], at[0], extra)
	}
}

// TestSortedBuilderReserve: a builder told the stream's length up front
// fills the Col and Val it reserved — the arrays of the finished matrix
// are the reserved ones, never a regrown copy — and builds the same matrix.
func TestSortedBuilderReserve(t *testing.T) {
	l := kroneckerSorted(t, 10)
	want := buildSorted(t, l, 1<<10)
	b, err := NewSortedBuilder(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	b.Reserve(l.Len())
	col, val := &b.b.col[:1][0], &b.b.val[:1][0]
	for i := range l.U {
		if err := b.Add(l.U[i], l.V[i]); err != nil {
			t.Fatal(err)
		}
	}
	a := b.Finish()
	if &a.Col[0] != col || &a.Val[0] != val {
		t.Error("Col/Val were regrown despite Reserve")
	}
	if !slices.Equal(a.RowPtr, want.RowPtr) || !slices.Equal(a.Col, want.Col) || !slices.Equal(a.Val, want.Val) {
		t.Error("reserved build differs from the unreserved one")
	}
}

// TestBuildersAgreeOnHubRows: FromEdges, FromSortedEdges and SortedBuilder
// share one row-compress routine; on short rows (23, 24, 25 entries), on
// rows around its radix cutoff (31, 32, 33 entries, and one column 32
// times), on a hub row of 10⁴ copies of few columns and on empty rows
// between them, the three matrices are equal in every bit of RowPtr, Col
// and Val.
func TestBuildersAgreeOnHubRows(t *testing.T) {
	const n = 64
	g := xrand.New(5)
	sorted := edge.NewList(0)
	row := func(u uint64, length int, cols uint64) {
		for i := 0; i < length; i++ {
			sorted.Append(u, g.Uint64n(cols))
		}
	}
	row(0, 23, n)
	row(1, 24, n)
	row(2, 25, n)
	row(3, radixRowLen-1, n)
	row(4, radixRowLen, n)
	row(5, radixRowLen+1, n)
	row(7, 10000, 3)       // 10⁴ duplicates of three columns
	row(8, 24, 1)          // one column, 24 times
	row(9, radixRowLen, 1) // one column, at the cutoff
	row(10, 1, n)
	row(40, 5000, n)
	row(n-1, 25, n)

	a, err := FromSortedEdges(sorted, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.SumValues() != float64(sorted.Len()) {
		t.Errorf("mass %v, want %d", a.SumValues(), sorted.Len())
	}
	if got := a.RowPtr[8] - a.RowPtr[7]; got != 3 {
		t.Errorf("hub row holds %d entries, want 3", got)
	}
	shuffled := sorted.Clone()
	shuffled.Shuffle(xrand.New(6))
	b, err := FromEdges(shuffled, n)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*CSR{"FromEdges": b, "SortedBuilder": buildSorted(t, sorted, n)} {
		if m.N != a.N || !slices.Equal(m.RowPtr, a.RowPtr) || !slices.Equal(m.Col, a.Col) ||
			!slices.EqualFunc(m.Val, a.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Errorf("%s differs from FromSortedEdges", name)
		}
	}
}

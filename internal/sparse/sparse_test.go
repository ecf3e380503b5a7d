package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/edge"
	"repro/internal/xrand"
)

func randomList(seed uint64, m int, n uint64) *edge.List {
	g := xrand.New(seed)
	l := edge.NewList(m)
	for i := 0; i < m; i++ {
		l.Append(g.Uint64n(n), g.Uint64n(n))
	}
	return l
}

func TestFromEdgesSmall(t *testing.T) {
	l := edge.NewList(5)
	l.Append(0, 1)
	l.Append(0, 1) // duplicate accumulates
	l.Append(1, 2)
	l.Append(2, 0)
	l.Append(2, 2) // self loop
	a, err := FromEdges(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := a.At(0, 1); got != 2 {
		t.Errorf("A(0,1) = %v, want 2 (duplicate accumulation)", got)
	}
	if got := a.At(1, 2); got != 1 {
		t.Errorf("A(1,2) = %v", got)
	}
	if got := a.At(2, 2); got != 1 {
		t.Errorf("A(2,2) = %v (self loop)", got)
	}
	if got := a.At(1, 0); got != 0 {
		t.Errorf("A(1,0) = %v, want 0", got)
	}
	if a.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", a.NNZ())
	}
	if s := a.SumValues(); s != 5 {
		t.Errorf("sum of entries = %v, want M = 5", s)
	}
}

func TestFromEdgesMassConservation(t *testing.T) {
	// Paper: "all the entries in A should sum to M" and "A should have
	// fewer than M non-zero entries" (because of collisions).
	const m, n = 20000, 256
	l := randomList(1, m, n)
	a, err := FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	if s := a.SumValues(); s != m {
		t.Errorf("sum = %v, want %d", s, m)
	}
	if a.NNZ() >= m {
		t.Errorf("NNZ = %d, want < M = %d given collisions", a.NNZ(), m)
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	l := edge.NewList(1)
	l.Append(5, 0)
	if _, err := FromEdges(l, 3); err == nil {
		t.Error("out-of-range start vertex accepted")
	}
	l2 := edge.NewList(1)
	l2.Append(0, 5)
	if _, err := FromEdges(l2, 3); err == nil {
		t.Error("out-of-range end vertex accepted")
	}
	if _, err := FromEdges(l, 0); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestFromSortedEdgesMatchesFromEdges(t *testing.T) {
	l := randomList(2, 5000, 128)
	a, err := FromEdges(l, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Sort by U and rebuild via the fast path.
	sorted := l.Clone()
	sortByU(sorted)
	b, err := FromSortedEdges(sorted, 128)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, a, b)
}

func sortByU(l *edge.List) {
	// local simple sort to avoid importing xsort (cycle-free but keep
	// the test self-contained)
	less := func(i, j int) bool { return l.U[i] < l.U[j] }
	for i := 1; i < l.Len(); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			l.Swap(j, j-1)
		}
	}
}

func assertSameMatrix(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.N != b.N || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: N %d/%d NNZ %d/%d", a.N, b.N, a.NNZ(), b.NNZ())
	}
	for i := 0; i <= a.N; i++ {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d vs %d", i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] || a.Val[k] != b.Val[k] {
			t.Fatalf("entry %d: (%d,%v) vs (%d,%v)", k, a.Col[k], a.Val[k], b.Col[k], b.Val[k])
		}
	}
}

func TestFromSortedEdgesRejectsUnsorted(t *testing.T) {
	l := edge.NewList(2)
	l.Append(3, 0)
	l.Append(1, 0)
	if _, err := FromSortedEdges(l, 4); err == nil {
		t.Error("unsorted input accepted")
	}
}

func TestFromTriplets(t *testing.T) {
	a, err := FromTriplets(3, []int{0, 0, 2}, []int{1, 1, 0}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.At(0, 1); got != 3 {
		t.Errorf("accumulated A(0,1) = %v, want 3", got)
	}
	if got := a.At(2, 0); got != 5 {
		t.Errorf("A(2,0) = %v", got)
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := FromTriplets(3, []int{0}, []int{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromTriplets(3, []int{9}, []int{0}, []float64{1}); err == nil {
		t.Error("out-of-range triplet accepted")
	}
}

func TestInOutDegrees(t *testing.T) {
	l := edge.NewList(4)
	l.Append(0, 2)
	l.Append(1, 2)
	l.Append(1, 2)
	l.Append(2, 0)
	a, _ := FromEdges(l, 3)
	din := a.InDegrees()
	if din[0] != 1 || din[1] != 0 || din[2] != 3 {
		t.Errorf("din = %v, want [1 0 3]", din)
	}
	dout := a.OutDegrees()
	if dout[0] != 1 || dout[1] != 2 || dout[2] != 1 {
		t.Errorf("dout = %v, want [1 2 1]", dout)
	}
}

func TestDegreeIdentity(t *testing.T) {
	// sum(din) == sum(dout) == sum(A) == M for any edge list.
	err := quick.Check(func(seed uint64) bool {
		l := randomList(seed, 500, 64)
		a, err := FromEdges(l, 64)
		if err != nil {
			return false
		}
		return Sum(a.InDegrees()) == 500 && Sum(a.OutDegrees()) == 500 && a.SumValues() == 500
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestZeroColumnsAndCompact(t *testing.T) {
	l := randomList(3, 1000, 32)
	a, _ := FromEdges(l, 32)
	before := a.NNZ()
	mask := make([]bool, 32)
	mask[5] = true
	mask[17] = true
	zeroed := a.ZeroColumns(mask)
	if zeroed == 0 {
		t.Fatal("nothing zeroed; test graph should hit columns 5 and 17")
	}
	din := a.InDegrees()
	if din[5] != 0 || din[17] != 0 {
		t.Errorf("zeroed columns still have in-degree: %v %v", din[5], din[17])
	}
	if a.NNZ() != before {
		t.Error("ZeroColumns should keep explicit zeros")
	}
	a.Compact()
	if a.NNZ() != before-zeroed {
		t.Errorf("Compact left %d entries, want %d", a.NNZ(), before-zeroed)
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
	for k := range a.Val {
		if a.Val[k] == 0 {
			t.Fatal("explicit zero survived Compact")
		}
	}
}

func TestScaleRowsNormalizes(t *testing.T) {
	l := randomList(4, 2000, 64)
	a, _ := FromEdges(l, 64)
	dout := a.OutDegrees()
	a.ScaleRows(dout)
	newDout := a.OutDegrees()
	for i, d := range newDout {
		if dout[i] == 0 {
			if d != 0 {
				t.Fatalf("empty row %d gained mass %v", i, d)
			}
			continue
		}
		if math.Abs(d-1) > 1e-12 {
			t.Fatalf("row %d sums to %v after normalization", i, d)
		}
	}
}

func TestScaleRowsSkipsZeroScale(t *testing.T) {
	a, _ := FromTriplets(2, []int{0}, []int{1}, []float64{3})
	a.ScaleRows([]float64{0, 0})
	if a.At(0, 1) != 3 {
		t.Error("zero scale should leave row untouched")
	}
}

func TestTranspose(t *testing.T) {
	l := randomList(5, 3000, 128)
	a, _ := FromEdges(l, 128)
	at := a.Transpose()
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	if at.NNZ() != a.NNZ() {
		t.Fatalf("transpose NNZ %d != %d", at.NNZ(), a.NNZ())
	}
	// Spot-check entries.
	g := xrand.New(6)
	for k := 0; k < 200; k++ {
		i, j := g.Intn(128), g.Intn(128)
		if a.At(i, j) != at.At(j, i) {
			t.Fatalf("A(%d,%d) = %v but Aᵀ(%d,%d) = %v", i, j, a.At(i, j), j, i, at.At(j, i))
		}
	}
	// Double transpose is identity.
	att := at.Transpose()
	assertSameMatrix(t, a, att)
}

func TestDense(t *testing.T) {
	a, _ := FromTriplets(3, []int{0, 1}, []int{2, 1}, []float64{4, 7})
	d, err := a.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if d[0][2] != 4 || d[1][1] != 7 || d[0][0] != 0 {
		t.Errorf("dense conversion wrong: %v", d)
	}
	big := &CSR{N: 5000, RowPtr: make([]int64, 5001)}
	if _, err := big.Dense(); err == nil {
		t.Error("Dense accepted N=5000")
	}
}

func TestVxMAgainstDense(t *testing.T) {
	const n = 64
	l := randomList(7, 1000, n)
	a, _ := FromEdges(l, n)
	d, _ := a.Dense()
	g := xrand.New(8)
	r := make([]float64, n)
	for i := range r {
		r[i] = g.Float64()
	}
	want := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want[j] += r[i] * d[i][j]
		}
	}
	got := make([]float64, n)
	a.VxM(got, r)
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-9 {
			t.Fatalf("VxM[%d] = %v, want %v", j, got[j], want[j])
		}
	}
	// Gather form through the transpose must agree.
	gotT := make([]float64, n)
	a.Transpose().MxV(gotT, r)
	for j := range want {
		if math.Abs(gotT[j]-want[j]) > 1e-9 {
			t.Fatalf("Transpose+MxV[%d] = %v, want %v", j, gotT[j], want[j])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := FromTriplets(2, []int{0}, []int{1}, []float64{1})
	b := a.Clone()
	b.Val[0] = 99
	if a.Val[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a, _ := FromTriplets(3, []int{0, 0}, []int{1, 2}, []float64{1, 1})
	a.Col[1] = a.Col[0] // duplicate column in row
	if err := a.Validate(); err == nil {
		t.Error("Validate missed non-increasing columns")
	}
	b, _ := FromTriplets(3, []int{0}, []int{1}, []float64{1})
	b.RowPtr[3] = 99
	if err := b.Validate(); err == nil {
		t.Error("Validate missed bad RowPtr tail")
	}
}

func TestVectorHelpers(t *testing.T) {
	v := []float64{1, -2, 3}
	if Sum(v) != 2 {
		t.Errorf("Sum = %v", Sum(v))
	}
	if Norm1(v) != 6 {
		t.Errorf("Norm1 = %v", Norm1(v))
	}
	if MaxValue(v) != 3 {
		t.Errorf("MaxValue = %v", MaxValue(v))
	}
	if MaxValue(nil) != 0 {
		t.Errorf("MaxValue(nil) = %v", MaxValue(nil))
	}
	w := append([]float64(nil), v...)
	Scale(w, 2)
	if w[2] != 6 {
		t.Errorf("Scale: %v", w)
	}
	AddConst(w, 1)
	if w[0] != 3 {
		t.Errorf("AddConst: %v", w)
	}
	if Diff1([]float64{1, 2}, []float64{2, 0}) != 3 {
		t.Error("Diff1 wrong")
	}
}

// sortedCopy is the oracle: slices.Sort on a copy.
func sortedCopy(s []uint32) []uint32 {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// TestRadixRowsMatchSlicesSort holds all three tiers of sortUint32 —
// insertion below 24 entries, slices.Sort below radixRowLen, byte radix
// from there — to slices.Sort: lengths around both thresholds, rows whose
// entries all agree in some bytes (passes the radix skips), values from
// 2^24 up (so the third and fourth passes run), all-equal and descending
// rows, and a scratch longer than the row.
func TestRadixRowsMatchSlicesSort(t *testing.T) {
	g := xrand.New(11)
	check := func(name string, s []uint32) {
		t.Helper()
		want := sortedCopy(s)
		sortUint32(s, make([]uint32, len(s)+3))
		if !slices.Equal(s, want) {
			t.Errorf("%s (%d entries): differs from slices.Sort", name, len(s))
		}
	}
	for _, n := range []int{0, 1, 5, 23, 24, 100, radixRowLen - 1, radixRowLen, radixRowLen + 1, 1000, 70000} {
		for _, bound := range []uint64{1, 50, 1 << 8, 1 << 16, 1<<24 + 5, 1 << 32} {
			s := make([]uint32, n)
			for i := range s {
				s[i] = uint32(g.Uint64n(bound))
			}
			check(fmt.Sprintf("random below %d", bound), s)
		}
		desc := make([]uint32, n)
		for i := range desc {
			desc[i] = uint32(n-i) << 13 // spans bytes 1–3 at the larger n
		}
		check("descending", desc)
		high := make([]uint32, n)
		for i := range high {
			high[i] = 0xAB000000 | uint32(g.Uint64n(300)) // bytes 2 and 3 constant
		}
		check("constant high bytes", high)
	}
}

// FuzzSortUint32 feeds sortUint32 arbitrary rows (the input bytes, taken
// four at a time), repeated to reach the radix tier.
func FuzzSortUint32(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(80))
	f.Add(bytes.Repeat([]byte{9, 8, 7}, 400), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, repeat uint8) {
		row := make([]uint32, 0, len(data)/4*int(repeat))
		for r := 0; r < int(repeat); r++ {
			for i := 0; i+4 <= len(data); i += 4 {
				row = append(row, binary.LittleEndian.Uint32(data[i:])+uint32(r)*0x01010101)
			}
		}
		want := sortedCopy(row)
		sortUint32(row, make([]uint32, len(row)))
		if !slices.Equal(row, want) {
			t.Fatalf("%d entries: sortUint32 differs from slices.Sort", len(row))
		}
	})
}

func BenchmarkFromEdges(b *testing.B) {
	l := randomList(1, 100000, 1<<14)
	b.SetBytes(int64(l.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(l, 1<<14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVxM(b *testing.B) {
	l := randomList(1, 100000, 1<<14)
	a, _ := FromEdges(l, 1<<14)
	r := make([]float64, a.N)
	out := make([]float64, a.N)
	for i := range r {
		r[i] = 1.0 / float64(a.N)
	}
	b.SetBytes(int64(a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.VxM(out, r)
	}
}

package graphblas

import (
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

func TestBuildAccumulatesDuplicates(t *testing.T) {
	m, err := Build(3, []int{0, 0, 1}, []int{1, 1, 2}, []float64{1, 2, 5}, PlusFloat64.Op)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.At(0, 1); !ok || v != 3 {
		t.Errorf("At(0,1) = %v,%v want 3,true", v, ok)
	}
	if v, ok := m.At(1, 2); !ok || v != 5 {
		t.Errorf("At(1,2) = %v,%v", v, ok)
	}
	if _, ok := m.At(2, 0); ok {
		t.Error("phantom entry at (2,0)")
	}
	if m.NNZ() != 2 || m.Dim() != 3 {
		t.Errorf("NNZ=%d Dim=%d", m.NNZ(), m.Dim())
	}
}

func TestBuildWithMinDup(t *testing.T) {
	// dup is caller-chosen: with Min, duplicates keep the smallest value.
	m, err := Build(2, []int{0, 0}, []int{1, 1}, []float64{7, 3}, MinFloat64.Op)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.At(0, 1); v != 3 {
		t.Errorf("min-dup value = %v, want 3", v)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(0, nil, nil, []float64{}, PlusFloat64.Op); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Build(2, []int{0}, []int{0, 1}, []float64{1}, PlusFloat64.Op); err == nil {
		t.Error("ragged triplets accepted")
	}
	if _, err := Build(2, []int{5}, []int{0}, []float64{1}, PlusFloat64.Op); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := Build(2, []int{0}, []int{0}, []float64{1}, nil); err == nil {
		t.Error("nil dup accepted")
	}
}

func TestBuildFromEdges(t *testing.T) {
	m, err := BuildFromEdges(4, []uint64{0, 0, 3}, []uint64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.At(0, 1); v != 2 {
		t.Errorf("count at (0,1) = %v", v)
	}
	if _, err := BuildFromEdges(2, []uint64{9}, []uint64{0}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestExtractTuplesRoundTrip(t *testing.T) {
	m, _ := Build(5, []int{4, 0, 2}, []int{1, 3, 2}, []float64{9, 8, 7}, PlusFloat64.Op)
	rows, cols, vals := m.ExtractTuples()
	m2, err := Build(5, rows, cols, vals, PlusFloat64.Op)
	if err != nil {
		t.Fatal(err)
	}
	r2, c2, v2 := m2.ExtractTuples()
	if len(r2) != len(rows) {
		t.Fatal("tuple count changed")
	}
	for i := range rows {
		if rows[i] != r2[i] || cols[i] != c2[i] || vals[i] != v2[i] {
			t.Fatalf("tuple %d changed: (%d,%d,%v) vs (%d,%d,%v)", i, rows[i], cols[i], vals[i], r2[i], c2[i], v2[i])
		}
	}
}

func TestMonoidLaws(t *testing.T) {
	// Property: identity and associativity for the shipped float64 monoids.
	monoids := map[string]Monoid[float64]{
		"plus": PlusFloat64, "times": TimesFloat64, "min": MinFloat64, "max": MaxFloat64,
	}
	for _, name := range slices.Sorted(maps.Keys(monoids)) {
		mon := monoids[name]
		t.Run(name, func(t *testing.T) {
			err := quick.Check(func(aBits, bBits, cBits uint32) bool {
				// Bounded floats to keep FP associativity exact-ish:
				// use small integers so + and × are exact.
				a := float64(aBits % 100)
				b := float64(bBits % 100)
				c := float64(cBits % 100)
				if mon.Op(a, mon.Identity) != a || mon.Op(mon.Identity, a) != a {
					return false
				}
				return mon.Op(mon.Op(a, b), c) == mon.Op(a, mon.Op(b, c))
			}, &quick.Config{MaxCount: 200})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

func TestVxMMatchesSparse(t *testing.T) {
	// Differential test against the specialized float64 kernel in sparse.
	const n = 128
	g := xrand.New(1)
	var us, vs []uint64
	for i := 0; i < 3000; i++ {
		us = append(us, g.Uint64n(n))
		vs = append(vs, g.Uint64n(n))
	}
	gm, err := BuildFromEdges(n, us, vs)
	if err != nil {
		t.Fatal(err)
	}
	sl := &struct{ U, V []uint64 }{us, vs}
	_ = sl
	sm, err := sparse.FromTriplets(n, toInts(us), toInts(vs), ones(len(us)))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = g.Float64()
	}
	want := make([]float64, n)
	sm.VxM(want, x)
	got := make([]float64, n)
	if err := VxM(got, x, gm, PlusTimesFloat64); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("VxM[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func toInts(u []uint64) []int {
	out := make([]int, len(u))
	for i, x := range u {
		out[i] = int(x)
	}
	return out
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestMxVTransposeDuality(t *testing.T) {
	// x·M == Mᵀ·x over any commutative semiring; check with plus-times.
	const n = 64
	g := xrand.New(2)
	var us, vs []uint64
	for i := 0; i < 1000; i++ {
		us = append(us, g.Uint64n(n))
		vs = append(vs, g.Uint64n(n))
	}
	m, _ := BuildFromEdges(n, us, vs)
	x := make([]float64, n)
	for i := range x {
		x[i] = g.Float64()
	}
	a := make([]float64, n)
	b := make([]float64, n)
	if err := VxM(a, x, m, PlusTimesFloat64); err != nil {
		t.Fatal(err)
	}
	if err := MxV(b, m.Transpose(), x, PlusTimesFloat64); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("duality violated at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDimensionErrors(t *testing.T) {
	m, _ := Build(3, []int{0}, []int{1}, []float64{1}, PlusFloat64.Op)
	if err := VxM(make([]float64, 2), make([]float64, 3), m, PlusTimesFloat64); err == nil {
		t.Error("VxM accepted short out")
	}
	if err := MxV(make([]float64, 3), m, make([]float64, 2), PlusTimesFloat64); err == nil {
		t.Error("MxV accepted short x")
	}
	if err := EWiseAdd(make([]float64, 2), make([]float64, 2), make([]float64, 3), PlusFloat64.Op); err == nil {
		t.Error("EWiseAdd accepted ragged input")
	}
}

func TestMinPlusShortestPathHop(t *testing.T) {
	// Tropical semiring: one MxV over (min,+) relaxes one hop of shortest
	// paths.  Path graph 0→1→2 with weights 5 and 7.
	m, err := Build(3, []int{0, 1}, []int{1, 2}, []float64{5, 7}, MinFloat64.Op)
	if err != nil {
		t.Fatal(err)
	}
	dist := []float64{0, inf, inf}
	next := make([]float64, 3)
	// dist'[j] = min_i dist[i] + M(i,j): one relaxation via VxM.
	if err := VxM(next, dist, m, MinPlusFloat64); err != nil {
		t.Fatal(err)
	}
	// Keep previously settled distances.
	EWiseAdd(next, next, dist, MinFloat64.Op)
	if next[1] != 5 || next[0] != 0 {
		t.Fatalf("after 1 hop: %v", next)
	}
	dist = next
	next2 := make([]float64, 3)
	VxM(next2, dist, m, MinPlusFloat64)
	EWiseAdd(next2, next2, dist, MinFloat64.Op)
	if next2[2] != 12 {
		t.Fatalf("after 2 hops dist[2] = %v, want 12", next2[2])
	}
}

func TestBooleanReachability(t *testing.T) {
	// (∨, ∧) semiring: frontier·M is one BFS expansion.
	m, err := Build(4, []int{0, 1, 2}, []int{1, 2, 3}, []bool{true, true, true},
		func(a, b bool) bool { return a || b })
	if err != nil {
		t.Fatal(err)
	}
	frontier := []bool{true, false, false, false}
	next := make([]bool, 4)
	if err := VxM(next, frontier, m, LorLandBool); err != nil {
		t.Fatal(err)
	}
	if !next[1] || next[2] || next[3] {
		t.Fatalf("1-hop frontier = %v", next)
	}
}

func TestApplyAndSelect(t *testing.T) {
	m, _ := Build(3, []int{0, 1, 2}, []int{1, 2, 0}, []float64{1, 2, 3}, PlusFloat64.Op)
	m.Apply(func(i, j int, v float64) float64 { return v * 10 })
	if v, _ := m.At(1, 2); v != 20 {
		t.Errorf("Apply result = %v", v)
	}
	sel := m.Select(func(i, j int, v float64) bool { return v > 15 })
	if sel.NNZ() != 2 {
		t.Errorf("Select kept %d entries, want 2", sel.NNZ())
	}
	if _, ok := sel.At(0, 1); ok {
		t.Error("Select kept the filtered entry")
	}
	// Column elimination (kernel-2 style) via Select.
	noCol0 := m.Select(func(i, j int, v float64) bool { return j != 0 })
	if _, ok := noCol0.At(2, 0); ok {
		t.Error("column 0 not eliminated")
	}
}

func TestReduceRowsColsAll(t *testing.T) {
	m, _ := Build(3, []int{0, 0, 1}, []int{0, 2, 2}, []float64{1, 2, 4}, PlusFloat64.Op)
	rows := m.ReduceRows(PlusFloat64)
	if rows[0] != 3 || rows[1] != 4 || rows[2] != 0 {
		t.Errorf("row sums = %v", rows)
	}
	cols := m.ReduceCols(PlusFloat64)
	if cols[0] != 1 || cols[1] != 0 || cols[2] != 6 {
		t.Errorf("col sums = %v", cols)
	}
	if s := m.ReduceAll(PlusFloat64); s != 7 {
		t.Errorf("total = %v", s)
	}
	if mx := m.ReduceAll(MaxFloat64); mx != 4 {
		t.Errorf("max = %v", mx)
	}
}

func TestReduceIdentityForEmpty(t *testing.T) {
	m, _ := Build(2, nil, nil, []float64{}, PlusFloat64.Op)
	rows := m.ReduceRows(MinFloat64)
	if !math.IsInf(rows[0], 1) {
		t.Errorf("empty row min = %v, want +Inf identity", rows[0])
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := xrand.New(3)
	var rows, cols []int
	var vals []float64
	for i := 0; i < 500; i++ {
		rows = append(rows, g.Intn(40))
		cols = append(cols, g.Intn(40))
		vals = append(vals, g.Float64())
	}
	m, _ := Build(40, rows, cols, vals, PlusFloat64.Op)
	tt := m.Transpose().Transpose()
	r1, c1, v1 := m.ExtractTuples()
	r2, c2, v2 := tt.ExtractTuples()
	if len(r1) != len(r2) {
		t.Fatal("transpose changed NNZ")
	}
	for i := range r1 {
		if r1[i] != r2[i] || c1[i] != c2[i] || v1[i] != v2[i] {
			t.Fatalf("(Mᵀ)ᵀ differs at %d", i)
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	v := []float64{1, 2, 3}
	for i, x := range v {
		v[i] = x * x
	}
	if s := ReduceVec(v, PlusFloat64); s != 14 {
		t.Errorf("ReduceVec = %v", s)
	}
	out := make([]float64, 3)
	if err := EWiseAdd(out, v, []float64{1, 1, 1}, PlusFloat64.Op); err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("EWiseAdd: %v", out)
	}
}

func BenchmarkGenericVxM(b *testing.B) {
	const n = 1 << 12
	g := xrand.New(1)
	var us, vs []uint64
	for i := 0; i < 16*n; i++ {
		us = append(us, g.Uint64n(n))
		vs = append(vs, g.Uint64n(n))
	}
	m, _ := BuildFromEdges(n, us, vs)
	x := make([]float64, n)
	out := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	b.SetBytes(int64(m.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VxM(out, x, m, PlusTimesFloat64)
	}
}

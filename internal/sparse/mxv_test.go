package sparse

// Tests for the gather kernel (MxVRange; MxV is its whole-matrix form).
// The loop the kernel replaced is kept here as the oracle: one
// accumulator per row, products added in ascending-k order.  The kernel
// must reproduce its bits for every row shape and every range.

import (
	"math"
	"testing"

	"repro/internal/edge"
	"repro/internal/kronecker"
	"repro/internal/xrand"
)

// randomCSR is the counting matrix of m uniformly random edges on n
// vertices.
func randomCSR(t testing.TB, seed uint64, m, n int) *CSR {
	t.Helper()
	g := xrand.New(seed)
	l := edge.NewList(m)
	for i := 0; i < m; i++ {
		l.Append(g.Uint64n(uint64(n)), g.Uint64n(uint64(n)))
	}
	a, err := FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mxvGroup is the look-ahead group size of MxVRange; row lengths around
// its multiples are where a grouped loop can go wrong.
const mxvGroup = 8

// naiveMxVRange is the reference gather loop.
func naiveMxVRange(a *CSR, out, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.Col[k]]
		}
		out[i] = s
	}
}

// sameFloatBits is bit equality, with every NaN equal to every NaN: which
// operand's payload survives an add of two NaNs is the instruction
// selector's choice, not part of the contract.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// mxvValue draws a matrix or vector element: mostly finite values of both
// signs, with explicit zeros of both signs always in the mix and, when
// specials is set, the occasional ±Inf and NaN.
func mxvValue(g *xrand.Xoshiro256, specials bool) float64 {
	switch g.Uint64n(64) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2, 3, 4:
		if specials {
			return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[g.Uint64n(3)]
		}
	}
	return g.NormFloat64() * math.Ldexp(1, int(g.Uint64n(40))-20)
}

// mxvTestMatrix builds an n×n CSR whose row lengths are rowLen(i), with
// distinct ascending columns per row.
func mxvTestMatrix(g *xrand.Xoshiro256, n int, specials bool, rowLen func(i int) int) *CSR {
	a := &CSR{N: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		// A random ascending subset of [0, n) of the wanted size: walk the
		// columns, keeping each with probability need/remaining.
		need := rowLen(i)
		for c := 0; c < n && need > 0; c++ {
			if g.Uint64n(uint64(n-c)) < uint64(need) {
				a.Col = append(a.Col, uint32(c))
				a.Val = append(a.Val, mxvValue(g, specials))
				need--
			}
		}
		a.RowPtr[i+1] = int64(len(a.Col))
	}
	return a
}

// assertMxVRangeMatchesNaive runs both loops over [lo, hi) into outputs
// pre-filled with a sentinel and compares every element: the rows inside
// the range bit for bit, the rows outside it still the sentinel.
func assertMxVRangeMatchesNaive(t *testing.T, what string, a *CSR, x []float64, lo, hi int) {
	t.Helper()
	const sentinel = -12345.678
	want, got := make([]float64, a.N), make([]float64, a.N)
	for i := range want {
		want[i], got[i] = sentinel, sentinel
	}
	naiveMxVRange(a, want, x, lo, hi)
	a.MxVRange(got, x, lo, hi)
	for i := range want {
		if !sameFloatBits(want[i], got[i]) {
			t.Fatalf("%s [%d,%d): out[%d] = %v (%#x), want %v (%#x); row length %d",
				what, lo, hi, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]),
				a.RowPtr[i+1]-a.RowPtr[i])
		}
	}
}

func TestMxVRangeMatchesNaiveLoopBitForBit(t *testing.T) {
	const n = 4500
	for _, specials := range []bool{false, true} {
		g := xrand.New(0x6d7876)
		// A third of the rows are empty, the others have length
		// i mod (2·group+2) — every length 0…2·group+1, many times over —
		// and row 100 is a hub.
		a := mxvTestMatrix(g, n, specials, func(i int) int {
			if i == 100 {
				return 4099
			}
			if g.Uint64n(3) == 0 {
				return 0
			}
			return i % (2*mxvGroup + 2)
		})
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = mxvValue(g, specials)
		}
		what := "finite"
		if specials {
			what = "with ±Inf and NaN"
		}
		assertMxVRangeMatchesNaive(t, what, a, x, 0, n)
		for _, r := range [][2]int{{0, 0}, {n, n}, {100, 100}, {100, 101}, {0, 1}, {n - 1, n}, {99, 102}} {
			assertMxVRangeMatchesNaive(t, what, a, x, r[0], r[1])
		}
		for trial := 0; trial < 200; trial++ {
			lo := int(g.Uint64n(n + 1))
			hi := lo + int(g.Uint64n(uint64(n+1-lo)))
			assertMxVRangeMatchesNaive(t, what, a, x, lo, hi)
		}
		// MxV is the whole range.
		want, got := make([]float64, n), make([]float64, n)
		naiveMxVRange(a, want, x, 0, n)
		a.MxV(got, x)
		for i := range want {
			if !sameFloatBits(want[i], got[i]) {
				t.Fatalf("%s: MxV out[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
}

// TestMxVRangeKroneckerTranspose holds the kernel to the oracle on the
// matrix shape kernel 3 actually multiplies: the transpose of a
// row-normalized scale-10 Kronecker adjacency matrix, power-law rows and
// all, under even row splits.
func TestMxVRangeKroneckerTranspose(t *testing.T) {
	l, err := kronecker.Generate(kronecker.New(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := FromEdges(l, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	a.ScaleRows(a.OutDegrees())
	at := a.Transpose()
	g := xrand.New(9)
	x := make([]float64, at.N)
	for i := range x {
		x[i] = g.Float64()
	}
	for _, workers := range []int{1, 2, 3, 5, 8} {
		for w := 0; w < workers; w++ {
			assertMxVRangeMatchesNaive(t, "kronecker Aᵀ", at, x, w*at.N/workers, (w+1)*at.N/workers)
		}
	}
}

func TestMxVRangeZeroAllocs(t *testing.T) {
	a := randomCSR(t, 5, 20000, 1000).Transpose()
	x, out := make([]float64, a.N), make([]float64, a.N)
	for i := range x {
		x[i] = float64(i)
	}
	if n := testing.AllocsPerRun(10, func() { a.MxVRange(out, x, 10, a.N-10) }); n != 0 {
		t.Fatalf("MxVRange allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { a.MxV(out, x) }); n != 0 {
		t.Fatalf("MxV allocates %v times per call, want 0", n)
	}
}

func BenchmarkMxV(b *testing.B) {
	a := randomCSR(b, 1, 1<<20, 1<<16).Transpose()
	x, out := make([]float64, a.N), make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MxV(out, x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(a.NNZ()), "ns/nnz")
}

package sparse

// Tests for the length-ordered gather operand.  Its product must be the
// plain transpose's product bit for bit — naiveMxVRange over Aᵀ is the
// oracle — for every row shape, every vector value and every team split,
// and its layout is a pure function of the matrix.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/kronecker"
	"repro/internal/xrand"
)

// checkOrderedLayout holds o to its definition against the plain
// transpose at: every row once, non-empty rows by descending length with
// ties in ascending id, then the empty rows ascending, and each row's
// entries exactly at's, in at's order.
func checkOrderedLayout(t *testing.T, o *Ordered, at *CSR) {
	t.Helper()
	if o.N() != at.N || len(o.Col) != at.NNZ() || len(o.Val) != len(o.Col) {
		t.Fatalf("shape: %d rows, %d/%d entries; transpose %d rows, %d entries", o.N(), len(o.Col), len(o.Val), at.N, at.NNZ())
	}
	nonEmpty := len(o.Ptr) - 1
	if o.Ptr[0] != 0 || o.Ptr[nonEmpty] != int64(len(o.Col)) {
		t.Fatalf("Ptr runs %d..%d, want 0..%d", o.Ptr[0], o.Ptr[nonEmpty], len(o.Col))
	}
	length := func(r uint32) int64 { return at.RowPtr[r+1] - at.RowPtr[r] }
	seen := make([]bool, at.N)
	for p, r := range o.Rows {
		if seen[r] {
			t.Fatalf("row %d listed twice", r)
		}
		seen[r] = true
		if p == 0 {
			continue
		}
		prev := o.Rows[p-1]
		if l, pl := length(r), length(prev); l > pl || l == pl && r < prev {
			t.Fatalf("position %d: row %d (length %d) after row %d (length %d)", p, r, l, prev, pl)
		}
	}
	for p, r := range o.Rows {
		lo, hi := at.RowPtr[r], at.RowPtr[r+1]
		if p >= nonEmpty {
			if hi != lo {
				t.Fatalf("position %d: row %d has %d entries but sits in the empty tail", p, r, hi-lo)
			}
			continue
		}
		k, e := o.Ptr[p], o.Ptr[p+1]
		if e-k != hi-lo || e == k {
			t.Fatalf("position %d: row %d holds %d entries, transpose %d", p, r, e-k, hi-lo)
		}
		for j := int64(0); j < e-k; j++ {
			if o.Col[k+j] != at.Col[lo+j] || math.Float64bits(o.Val[k+j]) != math.Float64bits(at.Val[lo+j]) {
				t.Fatalf("position %d (row %d) entry %d differs from the transpose's", p, r, j)
			}
		}
	}
}

// checkOrderedProduct compares o's product, whole and over every part of
// the splits a team of 1, 2, 3, 5 or 8 would use, with the naive gather
// over at, into outputs pre-filled with a sentinel: every element must be
// written, with the oracle's bits.
func checkOrderedProduct(t *testing.T, what string, o *Ordered, at *CSR, x []float64) {
	t.Helper()
	const sentinel = -12345.678
	want := make([]float64, at.N)
	naiveMxVRange(at, want, x, 0, at.N)
	fresh := func() []float64 {
		out := make([]float64, at.N)
		for i := range out {
			out[i] = sentinel
		}
		return out
	}
	compare := func(how string, got []float64) {
		t.Helper()
		for i := range want {
			if !sameFloatBits(want[i], got[i]) {
				t.Fatalf("%s, %s: out[%d] = %v (%#x), want %v (%#x); row length %d", what, how, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), at.RowPtr[i+1]-at.RowPtr[i])
			}
		}
	}
	got := fresh()
	o.MxV(got, x)
	compare("MxV", got)
	for _, parts := range []int{1, 2, 3, 5, 8} {
		b := o.Split(parts)
		if len(b) != parts+1 || b[0] != 0 || b[parts] != o.N() || !slices.IsSorted(b) {
			t.Fatalf("%s: Split(%d) = %v", what, parts, b)
		}
		got := fresh()
		for w := 0; w < parts; w++ {
			o.MxVRange(got, x, b[w], b[w+1])
		}
		compare("split", got)
		team := o.NewTeam(parts)
		got = fresh()
		team.MxV(got, x)
		team.Close()
		compare("team", got)
	}
}

func TestOrderedMatchesNaiveGatherBitForBit(t *testing.T) {
	const n = 4500
	for _, specials := range []bool{false, true} {
		g := xrand.New(0x6f7264)
		// The transpose wanted: a third of the rows empty, the others of
		// length i mod (2·group+2) — every length 0…17 many times over,
		// with ties in every length — and row 100 a 4 099-entry hub.
		at := mxvTestMatrix(g, n, specials, func(i int) int {
			if i == 100 {
				return 4099
			}
			if g.Uint64n(3) == 0 {
				return 0
			}
			return i % (2*mxvGroup + 2)
		})
		o := at.Transpose().TransposeOrdered()
		checkOrderedLayout(t, o, at)
		x := make([]float64, n)
		for i := range x {
			x[i] = mxvValue(g, true) // ±0, ±Inf and NaN in x whatever the matrix
		}
		what := "finite matrix"
		if specials {
			what = "matrix with ±Inf and NaN"
		}
		checkOrderedProduct(t, what, o, at, x)
	}
}

func TestOrderedDegenerateShapes(t *testing.T) {
	g := xrand.New(3)
	for _, tc := range []struct {
		name string
		at   *CSR
	}{
		{"all empty", &CSR{N: 7, RowPtr: make([]int64, 8)}},
		{"N = 1, empty", &CSR{N: 1, RowPtr: []int64{0, 0}}},
		{"N = 1, one entry", &CSR{N: 1, RowPtr: []int64{0, 1}, Col: []uint32{0}, Val: []float64{0.5}}},
		{"one hub row", mxvTestMatrix(g, 40, false, func(i int) int {
			if i == 39 {
				return 40
			}
			return 0
		})},
		{"all rows one long", mxvTestMatrix(g, 40, false, func(int) int { return 1 })},
	} {
		name, at := tc.name, tc.at
		o := at.Transpose().TransposeOrdered()
		checkOrderedLayout(t, o, at)
		x := make([]float64, at.N)
		for i := range x {
			x[i] = mxvValue(g, true)
		}
		checkOrderedProduct(t, name, o, at, x)
	}
}

// TestOrderedKroneckerTranspose holds the operand to the oracle on the
// shape kernel 3 multiplies: a filtered-like, row-normalized scale-10
// Kronecker matrix.
func TestOrderedKroneckerTranspose(t *testing.T) {
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
	o := a.TransposeOrdered()
	checkOrderedLayout(t, o, at)
	g := xrand.New(9)
	x := make([]float64, at.N)
	for i := range x {
		x[i] = g.Float64()
	}
	checkOrderedProduct(t, "kronecker Aᵀ", o, at, x)
}

// TestOrderedBuildsFromRowBlock: the rectangular form — one rank's row
// block, columns over the whole dimension — is the square build's
// transpose restricted to the block's rows, renumbered from zero.
func TestOrderedBuildsFromRowBlock(t *testing.T) {
	a := randomCSR(t, 4, 3000, 300)
	lo, hi := 100, 220
	rowPtr := make([]int64, hi-lo+1)
	for i := range rowPtr {
		rowPtr[i] = a.RowPtr[lo+i] - a.RowPtr[lo]
	}
	o := TransposeOrdered(a.N, rowPtr, a.Col[a.RowPtr[lo]:a.RowPtr[hi]], a.Val[a.RowPtr[lo]:a.RowPtr[hi]])
	// The same block as a square matrix: rows outside [lo, hi) empty.
	base, end := a.RowPtr[lo], a.RowPtr[hi]
	block := &CSR{N: a.N, RowPtr: make([]int64, a.N+1), Col: a.Col[base:end], Val: a.Val[base:end]}
	for i := range block.RowPtr {
		block.RowPtr[i] = a.RowPtr[min(max(i, lo), hi)] - base
	}
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i%11) - 3
	}
	want := make([]float64, a.N)
	block.Transpose().MxV(want, x)
	got := make([]float64, a.N)
	o.MxV(got, x[lo:hi])
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("out[%d] = %v, square block's transpose %v", i, got[i], want[i])
		}
	}
}

// TestTeamReusedAcrossProducts holds one chunk-scheduled team to MxV's
// bits over several products, each into a sentinel-filled out with a new
// x, so every product but the first runs on a counter reset by MxV: a
// missed reset deals no chunks and leaves the sentinel.  The operand has
// a hub row longer than a chunk — several cuts land on it, so some
// chunks are empty — and fewer non-empty rows than chunks.
func TestTeamReusedAcrossProducts(t *testing.T) {
	const n, hub = 300, 250
	g := xrand.New(0x7465616d)
	at := mxvTestMatrix(g, n, false, func(i int) int {
		switch {
		case i == 7:
			return hub
		case i%30 == 11:
			return 1 + i%5
		}
		return 0
	})
	o := at.Transpose().TransposeOrdered()
	nonEmpty, nnz := len(o.Ptr)-1, len(o.Col)
	for _, workers := range []int{1, 2, 3, 5, 8} {
		chunks := workers * teamChunks
		if nonEmpty >= chunks || hub <= nnz/chunks {
			t.Fatalf("%d workers: %d non-empty rows, %d entries, %d chunks: the shape tests nothing", workers, nonEmpty, nnz, chunks)
		}
		team := o.NewTeam(workers)
		for product := 0; product < 4; product++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = mxvValue(g, true)
			}
			want, got := make([]float64, n), make([]float64, n)
			o.MxV(want, x)
			for i := range got {
				got[i] = -12345.678
			}
			team.MxV(got, x)
			for i := range want {
				if !sameFloatBits(want[i], got[i]) {
					t.Fatalf("%d workers, product %d: out[%d] = %v, MxV %v", workers, product, i, got[i], want[i])
				}
			}
		}
		team.Close()
	}
}

func TestOrderedZeroAllocs(t *testing.T) {
	o := randomCSR(t, 5, 20000, 1000).TransposeOrdered()
	x, out, want := make([]float64, o.N()), make([]float64, o.N()), make([]float64, o.N())
	for i := range x {
		x[i] = float64(i)
	}
	if n := testing.AllocsPerRun(10, func() { o.MxV(want, x) }); n != 0 {
		t.Fatalf("MxV allocates %v times per call, want 0", n)
	}
	// The chunk counter lives in the team: dealing chunks costs nothing.
	for _, workers := range []int{1, 2, 3, 8} {
		team := o.NewTeam(workers)
		team.MxV(out, x) // warm the team
		if n := testing.AllocsPerRun(10, func() { team.MxV(out, x) }); n != 0 {
			t.Fatalf("%d workers: a team step allocates %v times per call, want 0", workers, n)
		}
		team.Close()
		if !slices.Equal(out, want) {
			t.Fatalf("%d workers: the team's last product differs from MxV's", workers)
		}
	}
}

// FuzzTransposeOrdered builds a small CSR from arbitrary bytes — an n,
// then (row, column, value) triplets — and requires the ordered operand
// to hold its definition, to give TransposeOrdered twice the same layout,
// and to multiply to Transpose().MxV's bits whole and over any split.
func FuzzTransposeOrdered(f *testing.F) {
	f.Add([]byte{4, 0, 1, 7, 2, 0, 3, 2, 3, 9})
	f.Add([]byte{1, 0, 0, 1})
	f.Add([]byte{16})
	f.Add([]byte{9, 3, 0, 1, 3, 1, 1, 3, 2, 1, 3, 4, 1, 3, 8, 200, 0, 3, 255, 5, 3, 127})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		data = data[1:]
		var rows, cols []int
		var vals []float64
		for ; len(data) >= 3; data = data[3:] {
			rows = append(rows, int(data[0])%n)
			cols = append(cols, int(data[1])%n)
			vals = append(vals, fuzzValue(data[2]))
		}
		a, err := FromTriplets(n, rows, cols, vals)
		if err != nil {
			t.Fatal(err)
		}
		at := a.Transpose()
		o := a.TransposeOrdered()
		checkOrderedLayout(t, o, at)
		again := a.TransposeOrdered()
		if !slices.Equal(o.Rows, again.Rows) || !slices.Equal(o.Ptr, again.Ptr) || !slices.Equal(o.Col, again.Col) {
			t.Fatal("two builds of one matrix differ")
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = fuzzValue(byte(i*37 + len(vals)))
		}
		checkOrderedProduct(t, "fuzzed", o, at, x)
	})
}

// fuzzValue maps a byte to a float64, the specials included.
func fuzzValue(b byte) float64 {
	switch b {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.NaN()
	}
	return (float64(b) - 128) / 7
}

func BenchmarkOrderedMxV(b *testing.B) {
	o := randomCSR(b, 1, 1<<20, 1<<16).TransposeOrdered()
	x, out := make([]float64, o.N()), make([]float64, o.N())
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.MxV(out, x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(o.Col)), "ns/nnz")
}

package sparse

// Tests for the length-ordered, value-free gather operand.  Its product
// must be the plain transpose's product bit for bit — naiveMxVRange over
// Aᵀ is the oracle — for every row shape, every vector value and every
// team split, and its layout is a pure function of the matrix.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/kronecker"
	"repro/internal/xrand"
)

// checkOrderedLayout holds the square operand o to its definition
// against the plain transpose at.  Label is a permutation that puts the
// non-empty rows first by descending length with ties in ascending id,
// then the empty rows ascending.  Each position holds its row's entries
// in at's order, each naming a slot whose term multiplies that entry's
// x element (the element of the row of A it comes from) by exactly that
// entry's value.  A row's first value is the row's own slot; every
// other (row, value) pair has exactly one extra slot.
func checkOrderedLayout(t *testing.T, o *Ordered, at *CSR) {
	t.Helper()
	n := at.N
	if o.N() != n || len(o.Label) != n || o.Rows != nil || len(o.Col) != at.NNZ() {
		t.Fatalf("shape: %d rows (%d labels, %d Rows), %d entries; transpose %d rows, %d entries",
			o.N(), len(o.Label), len(o.Rows), len(o.Col), n, at.NNZ())
	}
	m := len(o.Scale)
	if m != n || len(o.Extra) != len(o.Src) {
		t.Fatalf("table: %d own slots, %d/%d extra; want one per row of A (%d)", m, len(o.Extra), len(o.Src), n)
	}
	scale := func(slot int) float64 {
		if slot < m {
			return o.Scale[slot]
		}
		return o.Extra[slot-m]
	}
	nonEmpty := len(o.Ptr) - 1
	if o.Ptr[0] != 0 || o.Ptr[nonEmpty] != int64(len(o.Col)) {
		t.Fatalf("Ptr runs %d..%d, want 0..%d", o.Ptr[0], o.Ptr[nonEmpty], len(o.Col))
	}
	length := func(r uint32) int64 { return at.RowPtr[r+1] - at.RowPtr[r] }
	rowAt := make([]uint32, n)
	seen := make([]bool, n)
	for v, p := range o.Label {
		if int(p) >= n || seen[p] {
			t.Fatalf("vertex %d labelled %d: out of range or taken", v, p)
		}
		seen[p] = true
		rowAt[p] = uint32(v)
	}
	for p := 1; p < n; p++ {
		r, prev := rowAt[p], rowAt[p-1]
		if l, pl := length(r), length(prev); l > pl || l == pl && r < prev {
			t.Fatalf("position %d: row %d (length %d) after row %d (length %d)", p, r, l, prev, pl)
		}
	}
	a := at.Transpose()
	for i := 0; i < n; i++ {
		if lo := a.RowPtr[i]; lo < a.RowPtr[i+1] && math.Float64bits(o.Scale[o.Label[i]]) != math.Float64bits(a.Val[lo]) {
			t.Fatalf("row %d of A: own slot %d holds %v, first value %v", i, o.Label[i], o.Scale[o.Label[i]], a.Val[lo])
		}
	}
	type pair struct {
		src  uint32
		bits uint64
	}
	extra := make(map[pair]bool)
	for s, src := range o.Src {
		key := pair{src, math.Float64bits(o.Extra[s])}
		if extra[key] || key.bits == math.Float64bits(o.Scale[src]) {
			t.Fatalf("extra slot %d repeats x[%d]·%v", m+s, src, o.Extra[s])
		}
		extra[key] = true
	}
	used := make([]bool, len(o.Src))
	for p, r := range rowAt {
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
			slot, i := int(o.Col[k+j]), at.Col[lo+j]
			src := slot
			if slot >= m {
				src = int(o.Src[slot-m])
				used[slot-m] = true
			}
			if src != int(o.Label[i]) || math.Float64bits(scale(slot)) != math.Float64bits(at.Val[lo+j]) {
				t.Fatalf("position %d (row %d) entry %d: slot %d is x[%d]·%v, transpose x[%d]·%v",
					p, r, j, slot, src, scale(slot), o.Label[i], at.Val[lo+j])
			}
		}
	}
	for s, u := range used {
		if !u {
			t.Fatalf("extra slot %d is named by no entry", m+s)
		}
	}
}

// toLabels returns the vertex-order v in o's position labels.
func toLabels(o *Ordered, v []float64) []float64 {
	out := make([]float64, len(v))
	for i, p := range o.Label {
		out[p] = v[i]
	}
	return out
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
	xl, y := toLabels(o, x), make([]float64, o.Slots())
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
			if g := got[o.Label[i]]; !sameFloatBits(want[i], g) {
				t.Fatalf("%s, %s: out[%d] = %v (%#x), want %v (%#x); row length %d", what, how, i,
					g, math.Float64bits(g), want[i], math.Float64bits(want[i]), at.RowPtr[i+1]-at.RowPtr[i])
			}
		}
	}
	got := fresh()
	o.MxV(got, xl, y)
	compare("MxV", got)
	for _, parts := range []int{1, 2, 3, 5, 8} {
		b := o.Split(parts)
		if len(b) != parts+1 || b[0] != 0 || b[parts] != o.N() || !slices.IsSorted(b) {
			t.Fatalf("%s: Split(%d) = %v", what, parts, b)
		}
		got, y := fresh(), make([]float64, o.Slots())
		for w := 0; w < parts; w++ {
			lo, hi := w*len(y)/parts, (w+1)*len(y)/parts
			o.terms(y, xl, lo, hi)
		}
		for w := 0; w < parts; w++ {
			o.gatherRange(got, y, b[w], b[w+1])
		}
		compare("split", got)
		team := o.NewTeam(parts)
		got = fresh()
		team.MxV(got, xl)
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
	if o.Label != nil || o.N() != a.N || len(o.Scale) != hi-lo {
		t.Fatalf("block operand: %d labels, %d rows, %d own slots; want Rows over %d, a slot per block row (%d)",
			len(o.Label), o.N(), len(o.Scale), a.N, hi-lo)
	}
	want := make([]float64, a.N)
	block.Transpose().MxV(want, x)
	got := make([]float64, a.N)
	o.MxV(got, x[lo:hi], make([]float64, o.Slots()))
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("out[%d] = %v, square block's transpose %v", i, got[i], want[i])
		}
	}
	for _, workers := range []int{1, 3} {
		team := o.NewTeam(workers)
		got := make([]float64, a.N)
		team.MxV(got, x[lo:hi])
		team.Close()
		if !slices.Equal(got, want) {
			t.Fatalf("%d workers: the block team's product differs from the square block's", workers)
		}
	}
}

// TestTeamSplitBalanced holds every chunk a team deals to its share of
// the entries: on a Kronecker scale-12 operand, square and row block,
// each part of Split(w·teamChunks) holds at most nnz/parts entries plus
// the longest row, with nnz counted from Ptr.
func TestTeamSplitBalanced(t *testing.T) {
	l, err := kronecker.Generate(kronecker.New(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := FromEdges(l, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	a.ScaleRows(a.OutDegrees())
	lo, hi := a.N/4, 3*a.N/4
	blk := a.RowBlock(lo, hi)
	for _, o := range []*Ordered{a.TransposeOrdered(), TransposeOrdered(blk.N, blk.RowPtr, blk.Col, blk.Val)} {
		nonEmpty := len(o.Ptr) - 1
		nnz, longest := o.Ptr[nonEmpty], o.Ptr[1]-o.Ptr[0]
		for _, w := range []int{2, 3, 8} {
			parts := w * teamChunks
			b := o.Split(parts)
			for c := 0; c < parts; c++ {
				got := o.Ptr[min(b[c+1], nonEmpty)] - o.Ptr[min(b[c], nonEmpty)]
				if bound := (nnz+int64(parts)-1)/int64(parts) + longest; got > bound {
					t.Fatalf("%d workers (labels %v): chunk %d holds %d of %d entries, bound %d; cuts %v",
						w, o.Label != nil, c, got, nnz, bound, b)
				}
			}
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
	xl := make([]float64, n)
	for _, workers := range []int{1, 2, 3, 5, 8} {
		chunks := workers * teamChunks
		if nonEmpty >= chunks || hub <= nnz/chunks {
			t.Fatalf("%d workers: %d non-empty rows, %d entries, %d chunks: the shape tests nothing", workers, nonEmpty, nnz, chunks)
		}
		team := o.NewTeam(workers)
		for product := 0; product < 4; product++ {
			for i := range xl {
				xl[i] = mxvValue(g, true)
			}
			want, got := make([]float64, n), make([]float64, n)
			o.MxV(want, xl, make([]float64, o.Slots()))
			for i := range got {
				got[i] = -12345.678
			}
			team.MxV(got, xl)
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
	y := make([]float64, o.Slots())
	if n := testing.AllocsPerRun(10, func() { o.MxV(want, x, y) }); n != 0 {
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
// to hold its definition, to give TransposeOrdered twice the same layout
// and the transpose at widths 2 and 3 the same arrays, and to
// multiply to Transpose().MxV's bits whole and over any split.
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
		if !slices.Equal(o.Label, again.Label) || !slices.Equal(o.Ptr, again.Ptr) || !slices.Equal(o.Col, again.Col) ||
			!slices.Equal(o.Src, again.Src) || !slices.EqualFunc(o.Scale, again.Scale, sameFloatBits) ||
			!slices.EqualFunc(o.Extra, again.Extra, sameFloatBits) {
			t.Fatal("two builds of one matrix differ")
		}
		for _, workers := range []int{2, 3} {
			if !sameOrdered(transposeWide(a, workers), o) {
				t.Fatalf("%d workers build another operand", workers)
			}
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
	x, out, y := make([]float64, o.N()), make([]float64, o.N()), make([]float64, o.Slots())
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.MxV(out, x, y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(o.Col)), "ns/nnz")
}

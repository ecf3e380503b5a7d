package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/edge"
)

// MaxDim is the largest supported matrix dimension (uint32 column labels).
const MaxDim = 1 << 32

// CSR is a square sparse matrix in compressed sparse row form.
// Row i's entries live in Col[RowPtr[i]:RowPtr[i+1]] (column indices,
// strictly increasing within a row) and Val likewise.
type CSR struct {
	// N is the matrix dimension.
	N int
	// RowPtr has length N+1; RowPtr[0] == 0 and RowPtr[N] == NNZ.
	RowPtr []int64
	// Col holds the column index of each stored entry.
	Col []uint32
	// Val holds the value of each stored entry.
	Val []float64
}

// NNZ returns the number of stored entries (including explicit zeros).
func (a *CSR) NNZ() int { return len(a.Col) }

// Footprint returns the matrix's in-memory size in bytes — the three
// CSR arrays at their allocated capacity.  The service layer's staged
// artifact cache charges resident matrices at this cost.
func (a *CSR) Footprint() int64 {
	return int64(cap(a.RowPtr))*8 + int64(cap(a.Col))*4 + int64(cap(a.Val))*8
}

// SumValues returns the sum of all stored values.  For the kernel-2
// adjacency matrix before filtering this must equal M, the paper's
// "all the entries in A should sum to M" check.
func (a *CSR) SumValues() float64 {
	var s float64
	for _, v := range a.Val {
		s += v
	}
	return s
}

// At returns the value at (i, j), zero if no entry is stored.
// It runs a binary search within row i; intended for tests and validation,
// not inner loops.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	row := a.Col[lo:hi]
	k := sort.Search(len(row), func(k int) bool { return row[k] >= uint32(j) })
	if k < len(row) && row[k] == uint32(j) {
		return a.Val[lo+int64(k)]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		N:      a.N,
		RowPtr: append([]int64(nil), a.RowPtr...),
		Col:    append([]uint32(nil), a.Col...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// Validate checks structural invariants: monotone row pointers, in-range
// and strictly increasing column indices.  It is used by tests and by the
// pipeline's self-checks.
func (a *CSR) Validate() error {
	if len(a.RowPtr) != a.N+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want N+1 = %d", len(a.RowPtr), a.N+1)
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.N] != int64(len(a.Col)) || len(a.Col) != len(a.Val) {
		return fmt.Errorf("sparse: inconsistent RowPtr bounds or slice lengths")
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: row %d has negative extent", i)
		}
		for k := lo; k < hi; k++ {
			if int(a.Col[k]) >= a.N {
				return fmt.Errorf("sparse: row %d entry %d: column %d out of range", i, k, a.Col[k])
			}
			if k > lo && a.Col[k] <= a.Col[k-1] {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, k)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Builders

// FromEdges builds the N×N counting adjacency matrix from an edge list in
// arbitrary order: A(u,v) = multiplicity of edge (u,v).  It does not modify
// the input.  Cost is O(M + N) time using a counting pass over start
// vertices followed by per-row sorting and duplicate accumulation.
func FromEdges(l *edge.List, n int) (*CSR, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	m := l.Len()
	// Count row occupancy (with duplicates).
	rowPtr := make([]int64, n+1)
	for _, u := range l.U {
		if u >= uint64(n) {
			return nil, fmt.Errorf("sparse: start vertex %d out of range N=%d", u, n)
		}
		rowPtr[u+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// Scatter columns into row buckets.
	cols := make([]uint32, m)
	next := make([]int64, n)
	copy(next, rowPtr[:n])
	for i := 0; i < m; i++ {
		v := l.V[i]
		if v >= uint64(n) {
			return nil, fmt.Errorf("sparse: end vertex %d out of range N=%d", v, n)
		}
		u := l.U[i]
		cols[next[u]] = uint32(v)
		next[u]++
	}
	return compressRows(n, rowPtr, cols), nil
}

// FromSortedEdges builds the counting adjacency matrix from an edge list
// already sorted by start vertex (kernel 1's postcondition), skipping the
// scatter pass.  One pass over the list checks order and range and counts
// the rows.
func FromSortedEdges(l *edge.List, n int) (*CSR, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	rowPtr := make([]int64, n+1)
	cols := make([]uint32, l.Len())
	vs := l.V[:len(l.U)]
	var prev uint64
	for i, u := range l.U {
		v := vs[i]
		if u < prev {
			return nil, fmt.Errorf("sparse: FromSortedEdges input is not sorted by start vertex")
		}
		if u >= uint64(n) || v >= uint64(n) {
			return nil, fmt.Errorf("sparse: edge (%d,%d) out of range N=%d", u, v, n)
		}
		rowPtr[u+1]++
		cols[i] = uint32(v)
		prev = u
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return compressRows(n, rowPtr, cols), nil
}

func checkDim(n int) error {
	if n <= 0 || int64(n) > MaxDim {
		return fmt.Errorf("sparse: dimension %d out of range (0, 2^32]", n)
	}
	return nil
}

// compressRows sorts each row bucket of cols, accumulates duplicates into
// counts, and assembles the final CSR.  rowPtr delimits the uncompressed
// buckets; cols is consumed as scratch.  The first pass sorts the buckets
// and counts their distinct columns, so that Col and Val are allocated
// once, at exactly NNZ entries: a matrix costs the same handful of
// allocations whatever its size (the caller's two, and five here — the
// radix tier's scratch is one slice as long as the longest row).
func compressRows(n int, rowPtr []int64, cols []uint32) *CSR {
	longest := int64(0)
	for i := 0; i < n; i++ {
		longest = max(longest, rowPtr[i+1]-rowPtr[i])
	}
	var scratch []uint32
	if longest >= radixRowLen {
		scratch = make([]uint32, longest)
	}
	distinct := make([]int64, n+1) // distinct[i+1]: row i, then the running sum
	for i := 0; i < n; i++ {
		row := cols[rowPtr[i]:rowPtr[i+1]]
		sortUint32(row, scratch)
		d := int64(0)
		for k, c := range row {
			if k == 0 || c != row[k-1] {
				d++
			}
		}
		distinct[i+1] = distinct[i] + d
	}
	nnz := distinct[n]
	a := &CSR{N: n, RowPtr: distinct, Col: make([]uint32, 0, nnz), Val: make([]float64, 0, nnz)}
	for i := 0; i < n; i++ {
		a.Col, a.Val = appendRuns(a.Col, a.Val, cols[rowPtr[i]:rowPtr[i+1]])
	}
	return a
}

// appendRuns appends one entry per run of equal columns in the sorted row
// — the column to col, the run's length to val — and returns both.
func appendRuns(col []uint32, val []float64, row []uint32) ([]uint32, []float64) {
	for k := 0; k < len(row); {
		c := row[k]
		cnt := 1
		for k+cnt < len(row) && row[k+cnt] == c {
			cnt++
		}
		col = append(col, c)
		val = append(val, float64(cnt))
		k += cnt
	}
	return col, val
}

// radixRowLen is the row length from which sortUint32 radix-sorts: below
// it the four 256-entry histograms cost more than pdqsort's comparisons.
const radixRowLen = 192

// sortUint32 sorts one row's columns in three tiers — insertion sort below
// 24 entries, slices.Sort up to radixRowLen, an LSD byte-radix sort through
// scratch (at least as long as s) above.  Row lengths in Kronecker graphs
// are mostly tiny with a few huge hub rows, so every tier matters.  Plain
// integers have one sorted order, so which tier ran cannot show in the
// result.
func sortUint32(s, scratch []uint32) {
	switch {
	case len(s) < 24:
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
	case len(s) < radixRowLen:
		slices.Sort(s)
	default:
		radixUint32(s, scratch[:len(s)])
	}
}

// radixUint32 sorts s by its bytes, least significant first, moving the
// entries between s and scratch once per byte in which they differ.
func radixUint32(s, scratch []uint32) {
	var count [4][256]int
	for _, v := range s {
		count[0][v&0xFF]++
		count[1][v>>8&0xFF]++
		count[2][v>>16&0xFF]++
		count[3][v>>24]++
	}
	src, dst := s, scratch
	for p := range count {
		c, shift := &count[p], uint(8*p)
		if c[src[0]>>shift&0xFF] == len(s) {
			continue // every entry has this byte: the pass would move nothing
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, v := range src {
			b := v >> shift & 0xFF
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// FromTriplets builds a CSR from explicit (row, col, val) triplets,
// accumulating duplicates by addition.  It is the general GraphBLAS-style
// build used in tests and by the dense converter.
func FromTriplets(n int, rows, cols []int, vals []float64) (*CSR, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("sparse: triplet slices have unequal lengths %d/%d/%d", len(rows), len(cols), len(vals))
	}
	type entry struct {
		r, c int
		v    float64
	}
	entries := make([]entry, len(rows))
	for i := range rows {
		if rows[i] < 0 || rows[i] >= n || cols[i] < 0 || cols[i] >= n {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of range N=%d", rows[i], cols[i], n)
		}
		entries[i] = entry{rows[i], cols[i], vals[i]}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].r != entries[j].r {
			return entries[i].r < entries[j].r
		}
		return entries[i].c < entries[j].c
	})
	a := &CSR{N: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < len(entries); {
		e := entries[i]
		sum := e.v
		j := i + 1
		for j < len(entries) && entries[j].r == e.r && entries[j].c == e.c {
			sum += entries[j].v
			j++
		}
		a.Col = append(a.Col, uint32(e.c))
		a.Val = append(a.Val, sum)
		a.RowPtr[e.r+1] = int64(len(a.Col))
		i = j
	}
	for i := 0; i < n; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			a.RowPtr[i+1] = a.RowPtr[i]
		}
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// Reductions and scaling (the kernel-2 steps)

// InDegrees returns the column sums din = sum(A, 1) as a dense vector.
func (a *CSR) InDegrees() []float64 {
	din := make([]float64, a.N)
	for k, c := range a.Col {
		din[c] += a.Val[k]
	}
	return din
}

// OutDegrees returns the row sums dout = sum(A, 2) as a dense vector.
func (a *CSR) OutDegrees() []float64 {
	dout := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k]
		}
		dout[i] = s
	}
	return dout
}

// ZeroColumns sets to zero every stored entry whose column index c has
// mask[c] true, leaving explicit zeros in place (use Compact to drop them).
// It returns the number of entries zeroed.
func (a *CSR) ZeroColumns(mask []bool) int {
	zeroed := 0
	for k, c := range a.Col {
		if mask[c] && a.Val[k] != 0 {
			a.Val[k] = 0
			zeroed++
		}
	}
	return zeroed
}

// Compact removes all stored entries with value zero, preserving order.
func (a *CSR) Compact() {
	w := int64(0)
	read := int64(0)
	for i := 0; i < a.N; i++ {
		hi := a.RowPtr[i+1]
		for ; read < hi; read++ {
			if a.Val[read] != 0 {
				a.Col[w] = a.Col[read]
				a.Val[w] = a.Val[read]
				w++
			}
		}
		a.RowPtr[i+1] = w
	}
	a.Col = a.Col[:w]
	a.Val = a.Val[:w]
}

// ScaleRows divides every entry of row i by scale[i] wherever scale[i] is
// non-zero: the kernel-2 normalization A(i,:) = A(i,:) / dout(i) for
// dout(i) > 0.
func (a *CSR) ScaleRows(scale []float64) {
	for i := 0; i < a.N; i++ {
		s := scale[i]
		if s == 0 {
			continue
		}
		inv := 1 / s
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Val[k] *= inv
		}
	}
}

// Kernel2Mask returns the benchmark's kernel-2 column-elimination mask
// for the in-degree vector din: true for columns whose in-degree equals
// max(din) (super-nodes) or exactly 1 (leaves); empty columns are never
// marked.  It also returns max(din) and the super-node and leaf column
// counts.  Both the serial filter (pipeline.ApplyKernel2Filter) and the
// distributed filter (internal/dist) derive their masks here, which is
// what keeps the two bit-identical.
func Kernel2Mask(din []float64) (mask []bool, maxDin float64, superNodes, leaves int) {
	maxDin = MaxValue(din)
	mask = make([]bool, len(din))
	for j, d := range din {
		switch {
		case d == 0:
			// empty column: nothing to eliminate
		case d == maxDin:
			mask[j] = true
			superNodes++
		case d == 1:
			mask[j] = true
			leaves++
		}
	}
	return mask, maxDin, superNodes, leaves
}

// MaxValue returns the maximum of vec, or 0 for an empty vector.
func MaxValue(vec []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vec {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// ---------------------------------------------------------------------------
// Transpose and dense conversion

// Transpose returns Aᵀ as a new CSR.  The transposed matrix doubles as the
// CSC view of A, giving the gather formulation of the kernel-3 product.
func (a *CSR) Transpose() *CSR {
	n := a.N
	t := &CSR{N: n, RowPtr: make([]int64, n+1), Col: make([]uint32, a.NNZ()), Val: make([]float64, a.NNZ())}
	for _, c := range a.Col {
		t.RowPtr[c+1]++
	}
	for i := 0; i < n; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int64, n)
	copy(next, t.RowPtr[:n])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.Col[k]
			p := next[c]
			t.Col[p] = uint32(i)
			t.Val[p] = a.Val[k]
			next[c]++
		}
	}
	return t
}

// Dense returns the matrix as a dense row-major [][]float64.  It refuses
// dimensions above 4096 to avoid accidental huge allocations; it exists for
// the paper's small-scale eigenvector validation.
func (a *CSR) Dense() ([][]float64, error) {
	if a.N > 4096 {
		return nil, fmt.Errorf("sparse: Dense refused for N = %d > 4096", a.N)
	}
	d := make([][]float64, a.N)
	for i := range d {
		d[i] = make([]float64, a.N)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.Col[k]] = a.Val[k]
		}
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Vector-matrix products (the kernel-3 primitive)

// VxM computes out = r·A (row vector times matrix) with the scatter
// formulation: for every stored entry A(i,j), out[j] += r[i]·A(i,j).
// out must have length N and is overwritten.
func (a *CSR) VxM(out, r []float64) {
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < a.N; i++ {
		ri := r[i]
		if ri == 0 {
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			out[a.Col[k]] += float64(ri * a.Val[k])
		}
	}
}

// MxV computes out = A·x (matrix times column vector) with the gather
// formulation: out[i] = Σ_k A(i,k)·x[k].  Applied to Aᵀ this evaluates
// r·A by gathering, the cache-friendly alternative to VxM's scattering.
func (a *CSR) MxV(out, x []float64) { a.MxVRange(out, x, 0, a.N) }

// MxVRange computes the rows [lo, hi) of out = A·x — the gather product
// restricted to a contiguous row range.  Each output element depends only
// on its own row, so disjoint ranges may be computed concurrently with no
// coordination and no effect on the result's bits.  Kernel 3 multiplies
// the length-ordered Ordered operand instead; this form remains for
// callers that hold a plain transpose.
func (a *CSR) MxVRange(out, x []float64, lo, hi int) {
	if lo < hi {
		gather(out[lo:hi], nil, a.RowPtr[lo:hi+1], a.Col, a.Val, x)
	}
}

// gather is the one gather loop in the tree (DESIGN.md §7), shared by
// CSR.MxVRange and Ordered.MxVRange: for each row i that ptr delimits in
// col/val, it writes the row's sum Σ_k val[k]·x[col[k]] to out[rows[i]],
// or to out[i] when rows is nil.  Every row is a single accumulator
// receiving its products in ascending-k order — that addition sequence
// is the bit-for-bit contract.  Loading and multiplying a group of
// entries before adding them changes which loads are in flight, not the
// order of the adds; the float64 conversions keep the products from being
// fused into the adds on FMA architectures (DESIGN.md §4).  The rows
// branch is the same for a whole call, so it costs the predictor nothing.
func gather(out []float64, rows []uint32, ptr []int64, col []uint32, val, x []float64) {
	k := ptr[0]
	for i, e := range ptr[1:] {
		c, v := col[k:e], val[k:e]
		k = e
		var s float64
		// len(v) == len(c); testing both lets the compiler drop every
		// bounds check in the group but the data-dependent x[c[·]].
		for len(c) >= 8 && len(v) >= 8 {
			p0 := float64(v[0] * x[c[0]])
			p1 := float64(v[1] * x[c[1]])
			p2 := float64(v[2] * x[c[2]])
			p3 := float64(v[3] * x[c[3]])
			p4 := float64(v[4] * x[c[4]])
			p5 := float64(v[5] * x[c[5]])
			p6 := float64(v[6] * x[c[6]])
			p7 := float64(v[7] * x[c[7]])
			s = s + p0 + p1 + p2 + p3 + p4 + p5 + p6 + p7
			c, v = c[8:], v[8:]
		}
		v = v[:len(c)]
		for j, cj := range c {
			s += float64(v[j] * x[cj])
		}
		if rows != nil {
			out[rows[i]] = s
		} else {
			out[i] = s
		}
	}
}

// ---------------------------------------------------------------------------
// Vector helpers shared by the PageRank kernels

// Sum returns the sum of the vector's elements.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Norm1 returns the 1-norm (sum of absolute values).
func Norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Scale multiplies every element of v by a.
func Scale(v []float64, a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AddConst adds a to every element of v.
func AddConst(v []float64, a float64) {
	for i := range v {
		v[i] += a
	}
}

// Diff1 returns the 1-norm of (a - b); the convergence measure the paper
// mentions real PageRank deployments use.
func Diff1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

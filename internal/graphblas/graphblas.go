// Package graphblas implements the subset of the GraphBLAS standard needed
// to express the PageRank pipeline kernels as generalized sparse linear
// algebra.
//
// The paper notes that "the linear algebraic nature of PageRank makes it
// well suited to being implemented using the GraphBLAS standard" and lists
// a GraphBLAS reference implementation as future work.  This package is
// that implementation path: matrices over an arbitrary element type, with
// all reductions and products parameterized by user-supplied monoids and
// semirings.  Kernel 2's in/out-degree computations are semiring column and
// row reductions; kernel 3's iteration is a vector×matrix product over the
// (+, ×) semiring.  The same machinery instantiated over (min, +) or
// (|, &) gives shortest-path and reachability kernels, which the tests use
// to demonstrate (and verify) genericity.
package graphblas

import (
	"fmt"
	"math"
	"sort"
)

// BinaryOp combines two elements.
type BinaryOp[T any] func(T, T) T

// IndexUnaryOp transforms an element with knowledge of its (row, col)
// position, the GraphBLAS apply-with-index operation used for select-style
// filtering.
type IndexUnaryOp[T any] func(row, col int, v T) T

// Monoid is an associative BinaryOp with an identity element.
type Monoid[T any] struct {
	Op       BinaryOp[T]
	Identity T
}

// Semiring pairs an additive monoid with a multiplicative operator, the
// algebraic structure GraphBLAS products are defined over.
type Semiring[T any] struct {
	Add Monoid[T]
	Mul BinaryOp[T]
}

// Standard float64 building blocks.
var (
	// PlusFloat64 is the (＋, 0) monoid.
	PlusFloat64 = Monoid[float64]{Op: func(a, b float64) float64 { return a + b }, Identity: 0}
	// TimesFloat64 is the (×, 1) monoid.
	TimesFloat64 = Monoid[float64]{Op: func(a, b float64) float64 { return a * b }, Identity: 1}
	// MinFloat64 is the (min, +Inf) monoid.
	MinFloat64 = Monoid[float64]{Op: func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}, Identity: inf}
	// MaxFloat64 is the (max, -Inf) monoid.
	MaxFloat64 = Monoid[float64]{Op: func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}, Identity: -inf}
	// PlusTimesFloat64 is the conventional arithmetic semiring used by
	// PageRank.
	PlusTimesFloat64 = Semiring[float64]{Add: PlusFloat64, Mul: func(a, b float64) float64 { return a * b }}
	// MinPlusFloat64 is the tropical semiring (shortest paths).
	MinPlusFloat64 = Semiring[float64]{Add: MinFloat64, Mul: func(a, b float64) float64 { return a + b }}
	// LorLandBool is the boolean reachability semiring.
	LorLandBool = Semiring[bool]{
		Add: Monoid[bool]{Op: func(a, b bool) bool { return a || b }, Identity: false},
		Mul: func(a, b bool) bool { return a && b },
	}
)

var inf = math.Inf(1)

// ---------------------------------------------------------------------------
// Matrix

// Matrix is a square sparse matrix over T in compressed sparse row form.
// Stored entries are explicit; absent entries are interpreted as the
// additive identity of whichever monoid an operation is given.
type Matrix[T any] struct {
	n      int
	rowPtr []int64
	col    []uint32
	val    []T
}

// Dim returns the matrix dimension.
func (m *Matrix[T]) Dim() int { return m.n }

// NNZ returns the number of stored entries.
func (m *Matrix[T]) NNZ() int { return len(m.col) }

// Build constructs an n×n matrix from (row, col, val) triplets, combining
// duplicates with dup (the GraphBLAS GrB_Matrix_build dup operator).
func Build[T any](n int, rows, cols []int, vals []T, dup BinaryOp[T]) (*Matrix[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("graphblas: dimension %d, want > 0", n)
	}
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("graphblas: triplet slices have unequal lengths %d/%d/%d", len(rows), len(cols), len(vals))
	}
	if dup == nil {
		return nil, fmt.Errorf("graphblas: nil dup operator")
	}
	order := make([]int, len(rows))
	for i := range order {
		if rows[i] < 0 || rows[i] >= n || cols[i] < 0 || cols[i] >= n {
			return nil, fmt.Errorf("graphblas: triplet (%d,%d) out of range n=%d", rows[i], cols[i], n)
		}
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if rows[i] != rows[j] {
			return rows[i] < rows[j]
		}
		return cols[i] < cols[j]
	})
	m := &Matrix[T]{n: n, rowPtr: make([]int64, n+1)}
	for k := 0; k < len(order); {
		i := order[k]
		r, c := rows[i], cols[i]
		acc := vals[i]
		k++
		for k < len(order) && rows[order[k]] == r && cols[order[k]] == c {
			acc = dup(acc, vals[order[k]])
			k++
		}
		m.col = append(m.col, uint32(c))
		m.val = append(m.val, acc)
		m.rowPtr[r+1] = int64(len(m.col))
	}
	for i := 0; i < n; i++ {
		if m.rowPtr[i+1] < m.rowPtr[i] {
			m.rowPtr[i+1] = m.rowPtr[i]
		}
	}
	return m, nil
}

// BuildFromEdges constructs a counting matrix over float64 from uint64
// vertex pairs, the exact kernel-2 construction A = sparse(u, v, 1, N, N).
func BuildFromEdges(n int, us, vs []uint64) (*Matrix[float64], error) {
	rows := make([]int, len(us))
	cols := make([]int, len(us))
	vals := make([]float64, len(us))
	for i := range us {
		if us[i] >= uint64(n) || vs[i] >= uint64(n) {
			return nil, fmt.Errorf("graphblas: edge (%d,%d) out of range n=%d", us[i], vs[i], n)
		}
		rows[i] = int(us[i])
		cols[i] = int(vs[i])
		vals[i] = 1
	}
	return Build(n, rows, cols, vals, PlusFloat64.Op)
}

// ExtractTuples returns the stored entries as parallel triplet slices in
// row-major order.
func (m *Matrix[T]) ExtractTuples() (rows, cols []int, vals []T) {
	rows = make([]int, 0, m.NNZ())
	cols = make([]int, 0, m.NNZ())
	vals = make([]T, 0, m.NNZ())
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			rows = append(rows, i)
			cols = append(cols, int(m.col[k]))
			vals = append(vals, m.val[k])
		}
	}
	return rows, cols, vals
}

// At returns the stored value at (i, j) and whether an entry exists.
func (m *Matrix[T]) At(i, j int) (T, bool) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	row := m.col[lo:hi]
	k := sort.Search(len(row), func(k int) bool { return row[k] >= uint32(j) })
	if k < len(row) && row[k] == uint32(j) {
		return m.val[lo+int64(k)], true
	}
	var z T
	return z, false
}

// Apply replaces every stored value v at (i, j) with f(i, j, v).
func (m *Matrix[T]) Apply(f IndexUnaryOp[T]) {
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			m.val[k] = f(i, int(m.col[k]), m.val[k])
		}
	}
}

// Select returns a new matrix retaining only the entries for which keep
// returns true (GraphBLAS GrB_select).
func (m *Matrix[T]) Select(keep func(row, col int, v T) bool) *Matrix[T] {
	out := &Matrix[T]{n: m.n, rowPtr: make([]int64, m.n+1)}
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c := int(m.col[k])
			if keep(i, c, m.val[k]) {
				out.col = append(out.col, m.col[k])
				out.val = append(out.val, m.val[k])
			}
		}
		out.rowPtr[i+1] = int64(len(out.col))
	}
	return out
}

// Transpose returns the transposed matrix.
func (m *Matrix[T]) Transpose() *Matrix[T] {
	t := &Matrix[T]{n: m.n, rowPtr: make([]int64, m.n+1), col: make([]uint32, m.NNZ()), val: make([]T, m.NNZ())}
	for _, c := range m.col {
		t.rowPtr[c+1]++
	}
	for i := 0; i < m.n; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int64, m.n)
	copy(next, t.rowPtr[:m.n])
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c := m.col[k]
			p := next[c]
			t.col[p] = uint32(i)
			t.val[p] = m.val[k]
			next[c]++
		}
	}
	return t
}

// ReduceRows reduces each row with the monoid, returning a dense vector of
// length n (GraphBLAS GrB_Matrix_reduce to vector).  Rows with no entries
// reduce to the identity.
func (m *Matrix[T]) ReduceRows(mon Monoid[T]) []T {
	out := make([]T, m.n)
	for i := 0; i < m.n; i++ {
		acc := mon.Identity
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			acc = mon.Op(acc, m.val[k])
		}
		out[i] = acc
	}
	return out
}

// ReduceCols reduces each column with the monoid, returning a dense vector
// of length n.  This is kernel 2's in-degree when instantiated with
// PlusFloat64.
func (m *Matrix[T]) ReduceCols(mon Monoid[T]) []T {
	out := make([]T, m.n)
	for i := range out {
		out[i] = mon.Identity
	}
	for k, c := range m.col {
		out[c] = mon.Op(out[c], m.val[k])
	}
	return out
}

// ReduceAll reduces every stored entry to a scalar.
func (m *Matrix[T]) ReduceAll(mon Monoid[T]) T {
	acc := mon.Identity
	for _, v := range m.val {
		acc = mon.Op(acc, v)
	}
	return acc
}

// ---------------------------------------------------------------------------
// Vector operations

// VxM computes out = x·M over the semiring s: out[j] = ⊕_i x[i] ⊗ M(i,j),
// where entries absent from M contribute nothing.  x and out are dense
// vectors of length n; out is fully overwritten.  PageRank's update is
// VxM over PlusTimesFloat64.
func VxM[T any](out, x []T, m *Matrix[T], s Semiring[T]) error {
	if len(x) != m.n || len(out) != m.n {
		return fmt.Errorf("graphblas: VxM dimension mismatch: len(x)=%d len(out)=%d n=%d", len(x), len(out), m.n)
	}
	for i := range out {
		out[i] = s.Add.Identity
	}
	for i := 0; i < m.n; i++ {
		xi := x[i]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c := m.col[k]
			out[c] = s.Add.Op(out[c], s.Mul(xi, m.val[k]))
		}
	}
	return nil
}

// MxV computes out = M·x over the semiring s: out[i] = ⊕_j M(i,j) ⊗ x[j].
func MxV[T any](out []T, m *Matrix[T], x []T, s Semiring[T]) error {
	if len(x) != m.n || len(out) != m.n {
		return fmt.Errorf("graphblas: MxV dimension mismatch: len(x)=%d len(out)=%d n=%d", len(x), len(out), m.n)
	}
	for i := 0; i < m.n; i++ {
		acc := s.Add.Identity
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			acc = s.Add.Op(acc, s.Mul(m.val[k], x[m.col[k]]))
		}
		out[i] = acc
	}
	return nil
}

// MxM computes the matrix product C = A·B over the semiring s:
// C(i,j) = ⊕_k A(i,k) ⊗ B(k,j), with entries reducing to nothing (absent)
// when no k contributes.  It is the Gustavson row-by-row algorithm with a
// dense accumulator per row; adequate for the matrix dimensions of the
// validation and example workloads.
func MxM[T any](a, b *Matrix[T], s Semiring[T], isZero func(T) bool) (*Matrix[T], error) {
	if a.n != b.n {
		return nil, fmt.Errorf("graphblas: MxM dimension mismatch %d vs %d", a.n, b.n)
	}
	if isZero == nil {
		return nil, fmt.Errorf("graphblas: MxM requires an isZero predicate to keep C sparse")
	}
	n := a.n
	out := &Matrix[T]{n: n, rowPtr: make([]int64, n+1)}
	acc := make([]T, n)
	touched := make([]bool, n)
	var touchedList []int
	for i := 0; i < n; i++ {
		touchedList = touchedList[:0]
		for ka := a.rowPtr[i]; ka < a.rowPtr[i+1]; ka++ {
			k := int(a.col[ka])
			av := a.val[ka]
			for kb := b.rowPtr[k]; kb < b.rowPtr[k+1]; kb++ {
				j := b.col[kb]
				prod := s.Mul(av, b.val[kb])
				if !touched[j] {
					touched[j] = true
					touchedList = append(touchedList, int(j))
					acc[j] = s.Add.Op(s.Add.Identity, prod)
				} else {
					acc[j] = s.Add.Op(acc[j], prod)
				}
			}
		}
		sort.Ints(touchedList)
		for _, j := range touchedList {
			if !isZero(acc[j]) {
				out.col = append(out.col, uint32(j))
				out.val = append(out.val, acc[j])
			}
			touched[j] = false
		}
		out.rowPtr[i+1] = int64(len(out.col))
	}
	return out, nil
}

// EWiseAdd combines two dense vectors elementwise with op (GraphBLAS
// eWiseAdd over dense operands).
func EWiseAdd[T any](out, a, b []T, op BinaryOp[T]) error {
	if len(a) != len(b) || len(out) != len(a) {
		return fmt.Errorf("graphblas: EWiseAdd length mismatch %d/%d/%d", len(out), len(a), len(b))
	}
	for i := range a {
		out[i] = op(a[i], b[i])
	}
	return nil
}

// ReduceVec reduces a dense vector with the monoid.
func ReduceVec[T any](v []T, mon Monoid[T]) T {
	acc := mon.Identity
	for _, x := range v {
		acc = mon.Op(acc, x)
	}
	return acc
}

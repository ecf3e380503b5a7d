// Package edge defines the edge-list representation shared by all pipeline
// kernels.
//
// The PageRank pipeline benchmark moves a list of M directed edges through
// four kernels.  Edges are stored in "structure of arrays" form — two
// parallel uint64 slices for the start and end vertices — which is the
// layout both the columnar implementation variant and the radix sorter
// want, and which converts trivially to the (u, v) text records the paper
// specifies for non-volatile storage.
package edge

import (
	"slices"

	"repro/internal/xrand"
)

// List is a list of directed edges (U[i] -> V[i]).  The two slices always
// have equal length.  The zero value is an empty, ready-to-append list.
type List struct {
	U []uint64 // start vertices
	V []uint64 // end vertices
}

// NewList returns a List with capacity for n edges.
func NewList(n int) *List {
	return &List{U: make([]uint64, 0, n), V: make([]uint64, 0, n)}
}

// Make returns a List of length n with all edges (0, 0).
func Make(n int) *List {
	return &List{U: make([]uint64, n), V: make([]uint64, n)}
}

// Len returns the number of edges.
func (l *List) Len() int { return len(l.U) }

// Append adds the edge (u, v) to the list.
func (l *List) Append(u, v uint64) {
	l.U = append(l.U, u)
	l.V = append(l.V, v)
}

// Grow makes room for n more edges without changing the list's length.
func (l *List) Grow(n int) {
	l.U = slices.Grow(l.U, n)
	l.V = slices.Grow(l.V, n)
}

// AppendList appends all edges of other to l.
func (l *List) AppendList(other *List) {
	l.U = append(l.U, other.U...)
	l.V = append(l.V, other.V...)
}

// At returns the i-th edge.
func (l *List) At(i int) (u, v uint64) { return l.U[i], l.V[i] }

// Set overwrites the i-th edge.
func (l *List) Set(i int, u, v uint64) {
	l.U[i] = u
	l.V[i] = v
}

// Swap exchanges edges i and j.  Together with Len and a comparison this
// lets a List participate in sort.Sort-style algorithms.
func (l *List) Swap(i, j int) {
	l.U[i], l.U[j] = l.U[j], l.U[i]
	l.V[i], l.V[j] = l.V[j], l.V[i]
}

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	c := Make(l.Len())
	copy(c.U, l.U)
	copy(c.V, l.V)
	return c
}

// Slice returns a view of edges [lo, hi).  The view shares storage with l.
func (l *List) Slice(lo, hi int) *List {
	return &List{U: l.U[lo:hi:hi], V: l.V[lo:hi:hi]}
}

// Reset truncates the list to zero length, retaining capacity.
func (l *List) Reset() {
	l.U = l.U[:0]
	l.V = l.V[:0]
}

// Shuffle permutes the order of the edges in place using g: the
// permutation g.Shuffle(l.Len(), l.Swap) makes, swapped directly.
// Kernel 0 of Graph500 randomizes edge order so that the sort in kernel 1
// is not trivially presorted.
func (l *List) Shuffle(g *xrand.Xoshiro256) {
	u, v := l.U, l.V[:len(l.U)]
	for i := len(u) - 1; i > 0; i-- {
		j := g.Uint64n(uint64(i + 1))
		u[i], u[j] = u[j], u[i]
		v[i], v[j] = v[j], v[i]
	}
}

// IsSortedByU reports whether the edges are sorted by start vertex
// (non-decreasing U), the postcondition of kernel 1.
func (l *List) IsSortedByU() bool {
	for i := 1; i < len(l.U); i++ {
		if l.U[i-1] > l.U[i] {
			return false
		}
	}
	return true
}

// IsSortedByUV reports whether the edges are sorted by (U, V)
// lexicographically.
func (l *List) IsSortedByUV() bool {
	for i := 1; i < len(l.U); i++ {
		if l.U[i-1] > l.U[i] || (l.U[i-1] == l.U[i] && l.V[i-1] > l.V[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two lists contain the same edges in the same order.
func (l *List) Equal(other *List) bool {
	if l.Len() != other.Len() {
		return false
	}
	for i := range l.U {
		if l.U[i] != other.U[i] || l.V[i] != other.V[i] {
			return false
		}
	}
	return true
}

// Counts returns a multiset fingerprint of the edges: a map from (u,v) to
// multiplicity.  It is intended for tests and validation, not hot paths.
func (l *List) Counts() map[[2]uint64]int {
	m := make(map[[2]uint64]int, l.Len())
	for i := range l.U {
		m[[2]uint64{l.U[i], l.V[i]}]++
	}
	return m
}

// SameMultiset reports whether two lists contain exactly the same edges
// ignoring order (the invariant kernel 1 must preserve).
func (l *List) SameMultiset(other *List) bool {
	if l.Len() != other.Len() {
		return false
	}
	a := l.Counts()
	for i := range other.U {
		k := [2]uint64{other.U[i], other.V[i]}
		a[k]--
		if a[k] == 0 {
			delete(a, k)
		}
	}
	return len(a) == 0
}

// Package fastiotest provides in-memory edge streams for tests of code
// that reads a fastio.EdgeSource or writes a fastio.EdgeSink.
package fastiotest

import (
	"io"

	"repro/internal/edge"
)

// ListSource is a fastio.EdgeSource reading an in-memory edge list.
type ListSource struct {
	l *edge.List
	i int
}

// NewListSource returns a source reading the edges of l in order.
func NewListSource(l *edge.List) *ListSource { return &ListSource{l: l} }

// ReadEdges implements fastio.EdgeSource: one slice copy per call.
func (s *ListSource) ReadEdges(l *edge.List, max int) (int, error) {
	n := min(max, s.l.Len()-s.i)
	if n <= 0 {
		return 0, io.EOF
	}
	l.U = append(l.U, s.l.U[s.i:s.i+n]...)
	l.V = append(l.V, s.l.V[s.i:s.i+n]...)
	s.i += n
	return n, nil
}

// ListSink is a fastio.EdgeSink appending to an in-memory edge list.
type ListSink struct {
	L *edge.List
}

// NewListSink returns a sink appending to l.
func NewListSink(l *edge.List) *ListSink { return &ListSink{L: l} }

// WriteEdges implements fastio.EdgeSink: one slice copy per call.
func (s *ListSink) WriteEdges(l *edge.List, lo, hi int) error {
	s.L.U = append(s.L.U, l.U[lo:hi]...)
	s.L.V = append(s.L.V, l.V[lo:hi]...)
	return nil
}

// Flush implements fastio.EdgeSink.
func (s *ListSink) Flush() error { return nil }

package fastio

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/edge"
)

// Batched codec I/O.  The per-edge EdgeSink/EdgeSource interfaces cost one
// virtual call (and, for readers, one bounds-checked append) per edge —
// a constant factor that dominates kernels 0 and 1 once the encoding
// itself is cheap.  Codecs that can move edges in bulk implement the
// optional interfaces below; the package-level WriteEdges/ReadEdges
// adapters fall back to the per-edge loop for codecs that cannot, so
// every call site gets the fast path where one exists and stays correct
// where it does not.

// readChunkEdges is the batch size used by the streaming read loops: large
// enough to amortize the per-call overhead, small enough that scratch
// buffers stay cache- and allocation-friendly.
const readChunkEdges = 16 << 10

// BulkEdgeSink is the batched write path of an EdgeSink.  WriteEdges
// appends edges l[lo:hi) to the stream in one call; the range must be
// valid (callers go through the package-level WriteEdges, which checks).
type BulkEdgeSink interface {
	EdgeSink
	WriteEdges(l *edge.List, lo, hi int) error
}

// BulkEdgeSource is the batched read path of an EdgeSource.  ReadEdges
// appends up to max edges to l and returns the number appended.  A short
// count with a nil error is legal (a block or stripe boundary, say);
// (0, io.EOF) means end of stream, and the call repeats io.EOF thereafter.
type BulkEdgeSource interface {
	EdgeSource
	ReadEdges(l *edge.List, max int) (int, error)
}

// WriteEdges writes edges l[lo:hi) to s, through one batched call when s
// implements BulkEdgeSink and edge by edge otherwise.
func WriteEdges(s EdgeSink, l *edge.List, lo, hi int) error {
	if lo < 0 || hi > l.Len() || lo > hi {
		return fmt.Errorf("fastio: WriteEdges range [%d:%d) out of bounds for %d edges", lo, hi, l.Len())
	}
	if b, ok := s.(BulkEdgeSink); ok {
		return b.WriteEdges(l, lo, hi)
	}
	us, vs := l.U, l.V
	for i := lo; i < hi; i++ {
		if err := s.WriteEdge(us[i], vs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadEdges appends up to max edges from s to l, returning the number
// appended.  It follows the BulkEdgeSource contract: a short count with a
// nil error is legal, and (0, io.EOF) marks end of stream — so callers
// loop until io.EOF rather than until a short read.
func ReadEdges(s EdgeSource, l *edge.List, max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	if b, ok := s.(BulkEdgeSource); ok {
		return b.ReadEdges(l, max)
	}
	n := 0
	for n < max {
		u, v, err := s.ReadEdge()
		if err == io.EOF {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		if err != nil {
			return n, err
		}
		l.Append(u, v)
		n++
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Native bulk implementations

// WriteEdges implements BulkEdgeSink: the per-edge formatting loop runs
// without interface dispatch between edges.
func (t *TSVWriter) WriteEdges(l *edge.List, lo, hi int) error {
	us, vs := l.U[lo:hi], l.V[lo:hi]
	for i, u := range us {
		if err := t.WriteEdge(u, vs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadEdges implements BulkEdgeSource.
func (t *TSVReader) ReadEdges(l *edge.List, max int) (int, error) {
	for n := 0; n < max; n++ {
		u, v, err := t.ReadEdge()
		if err == io.EOF && n > 0 {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		l.Append(u, v)
	}
	return max, nil
}

// WriteEdges implements BulkEdgeSink.
func (b *binWriter) WriteEdges(l *edge.List, lo, hi int) error {
	us, vs := l.U, l.V
	for i := lo; i < hi; i++ {
		b.buf = binary.LittleEndian.AppendUint64(b.buf, us[i])
		b.buf = binary.LittleEndian.AppendUint64(b.buf, vs[i])
		if len(b.buf) >= cap(b.buf)-16 {
			if err := b.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadEdges implements BulkEdgeSource: whole record batches move through
// one io.ReadFull per chunk instead of one per edge.
func (b *binReader) ReadEdges(l *edge.List, max int) (int, error) {
	const chunk = 4096 // records per ReadFull
	if b.blk == nil {
		b.blk = make([]byte, chunk*16)
	}
	total := 0
	for total < max {
		want := max - total
		if want > chunk {
			want = chunk
		}
		buf := b.blk[:want*16]
		got, err := io.ReadFull(b.r, buf)
		full := got / 16
		for i := 0; i < full; i++ {
			l.Append(binary.LittleEndian.Uint64(buf[i*16:]), binary.LittleEndian.Uint64(buf[i*16+8:]))
		}
		total += full
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if got%16 != 0 {
				return total, fmt.Errorf("fastio: truncated binary edge record: %w", io.ErrUnexpectedEOF)
			}
			if total == 0 {
				return 0, io.EOF
			}
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadEdges implements BulkEdgeSource, delegating to the current stripe's
// bulk path and rolling to the next stripe at each boundary.
func (s *StripedSource) ReadEdges(l *edge.List, max int) (int, error) {
	for {
		if s.src == nil {
			if s.next >= len(s.names) {
				return 0, io.EOF
			}
			r, err := s.fs.Open(s.names[s.next])
			if err != nil {
				return 0, err
			}
			s.cur = r
			s.src = s.codec.NewReader(r)
			s.next++
		}
		n, err := ReadEdges(s.src, l, max)
		if err == io.EOF {
			s.cur.Close()
			s.cur, s.src = nil, nil
			continue
		}
		return n, err
	}
}

// ReadEdges implements BulkEdgeSource: one slice copy per call.
func (s *ListSource) ReadEdges(l *edge.List, max int) (int, error) {
	rem := s.l.Len() - s.i
	if rem == 0 {
		return 0, io.EOF
	}
	if max > rem {
		max = rem
	}
	l.U = append(l.U, s.l.U[s.i:s.i+max]...)
	l.V = append(l.V, s.l.V[s.i:s.i+max]...)
	s.i += max
	return max, nil
}

// WriteEdges implements BulkEdgeSink: one slice copy per call.
func (s *ListSink) WriteEdges(l *edge.List, lo, hi int) error {
	s.L.U = append(s.L.U, l.U[lo:hi]...)
	s.L.V = append(s.L.V, l.V[lo:hi]...)
	return nil
}

// Conformance checks for the native bulk paths.
var (
	_ BulkEdgeSink   = (*TSVWriter)(nil)
	_ BulkEdgeSource = (*TSVReader)(nil)
	_ BulkEdgeSink   = (*binWriter)(nil)
	_ BulkEdgeSource = (*binReader)(nil)
	_ BulkEdgeSource = (*StripedSource)(nil)
	_ BulkEdgeSource = (*ListSource)(nil)
	_ BulkEdgeSink   = (*ListSink)(nil)
)

package fastio

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// StripedSink is an EdgeSink that distributes an edge stream across a fixed
// number of stripe files: the stripe writer of the kernels that stream
// (WriteStripedWide writes a whole list, with the same bytes).  Its layout
// rule is cumulative: for a stream of the expected m edges, stripe i ends
// after edge ⌊(i+1)·m/nfiles⌋, so it holds ⌊(i+1)·m/nfiles⌋ − ⌊i·m/nfiles⌋
// of them, possibly none; the last stripe absorbs any overflow, and a
// shorter stream leaves the stripes past its end unwritten.  Edges are
// encoded and written behind the caller on a one-goroutine workteam.Ring
// (overlap.go): a write error — `fastio: <stripe>: <cause>` — surfaces at
// a later write, at Flush or at Close, which wait for every edge written
// before them.  Close flushes and closes the current stripe and stops the
// ring.
type StripedSink struct {
	writeBehind
	out stripeWriter
}

// NewStripedSink returns a StripedSink writing nfiles stripes under prefix,
// laid out for a stream of expectedEdges edges.
func NewStripedSink(fs vfs.FS, prefix string, codec Codec, nfiles int, expectedEdges int64) (*StripedSink, error) {
	if nfiles < 1 {
		return nil, fmt.Errorf("fastio: nfiles = %d, want >= 1", nfiles)
	}
	s := &StripedSink{out: stripeWriter{fs: fs, prefix: prefix, codec: codec, nfiles: nfiles, expected: max(expectedEdges, 0)}}
	s.drain, s.flush = s.out.writeEdges, s.out.flush
	return s, nil
}

// Close finishes the sink, closing any open stripe.  A sink that received
// no edges at all still produces one empty stripe so readers find the
// prefix.
func (s *StripedSink) Close() error {
	err := s.finish()
	if cerr := s.out.close(); err == nil {
		err = cerr
	}
	return err
}

// stripeWriter is the stream a StripedSink writes behind: it encodes
// batches into the stripes on the calling goroutine.
type stripeWriter struct {
	fs       vfs.FS
	prefix   string
	codec    Codec
	nfiles   int
	expected int64

	stripe  int   // stripes opened so far
	written int64 // edges written to all stripes
	name    string
	cur     io.WriteCloser
	sink    EdgeSink
}

// writeEdges writes l, carving it along the stripe ends and forwarding
// each piece to the codec.
func (s *stripeWriter) writeEdges(l *edge.List) error {
	for lo, hi := 0, l.Len(); lo < hi; {
		if s.sink == nil {
			if err := s.openNext(); err != nil {
				return err
			}
		}
		n := hi - lo
		last := s.stripe == s.nfiles
		if !last {
			n = int(min(int64(n), s.end()-s.written))
		}
		if err := WriteEdges(s.sink, l, lo, lo+n); err != nil {
			return s.fail(err)
		}
		s.written += int64(n)
		lo += n
		if !last && s.written >= s.end() {
			if err := s.closeCurrent(); err != nil {
				return err
			}
		}
	}
	return nil
}

// end is the number of edges that end the current stripe, ⌊(i+1)·m/nfiles⌋
// for stripe i.
func (s *stripeWriter) end() int64 {
	return int64(s.stripe) * s.expected / int64(s.nfiles)
}

// fail names the current stripe in err.
func (s *stripeWriter) fail(err error) error {
	return fmt.Errorf("fastio: %s: %w", s.name, err)
}

func (s *stripeWriter) openNext() error {
	s.name = StripeName(s.prefix, s.codec, s.stripe)
	w, err := s.fs.Create(s.name)
	if err != nil {
		return s.fail(err)
	}
	s.cur = w
	s.sink = s.codec.NewWriter(w)
	s.stripe++
	return nil
}

func (s *stripeWriter) closeCurrent() error {
	if s.sink == nil {
		return nil
	}
	if err := s.sink.Flush(); err != nil {
		s.cur.Close()
		s.cur, s.sink = nil, nil
		return s.fail(err)
	}
	err := s.cur.Close()
	s.cur, s.sink = nil, nil
	if err != nil {
		return s.fail(err)
	}
	return nil
}

// flush flushes the current stripe's buffer but keeps the stripe open for
// further edges.
func (s *stripeWriter) flush() error {
	if s.sink == nil {
		return nil
	}
	if err := s.sink.Flush(); err != nil {
		return s.fail(err)
	}
	return nil
}

func (s *stripeWriter) close() error {
	if s.sink == nil && s.stripe == 0 {
		if err := s.openNext(); err != nil {
			return err
		}
	}
	return s.closeCurrent()
}

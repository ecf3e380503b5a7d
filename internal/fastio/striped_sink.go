package fastio

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// StripedSink is an EdgeSink that distributes an edge stream across a fixed
// number of stripe files without knowing the total edge count in advance —
// the out-of-core counterpart of WriteStriped.  Edges are written to stripe
// i until edgesPerStripe records accumulate, then the sink rolls to stripe
// i+1; the final stripe absorbs any overflow.  Edges are encoded and
// written behind the caller on one helper goroutine (overlap.go): a write
// error — `fastio: <stripe>: <cause>` — surfaces at a later write, at
// Flush or at Close, which wait for every edge written before them.  Close
// flushes and closes the current stripe and stops the helper.
type StripedSink struct {
	writeBehind
	out stripeWriter
}

// NewStripedSink returns a StripedSink writing nfiles stripes under prefix.
// expectedEdges sizes the per-stripe quota; if the stream turns out longer,
// the last stripe grows (stripe count never exceeds nfiles).
func NewStripedSink(fs vfs.FS, prefix string, codec Codec, nfiles int, expectedEdges int64) (*StripedSink, error) {
	if nfiles < 1 {
		return nil, fmt.Errorf("fastio: nfiles = %d, want >= 1", nfiles)
	}
	per := expectedEdges / int64(nfiles)
	if per < 1 {
		per = 1
	}
	s := &StripedSink{out: stripeWriter{fs: fs, prefix: prefix, codec: codec, nfiles: nfiles, edgesPerStripe: per}}
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
	fs             vfs.FS
	prefix         string
	codec          Codec
	nfiles         int
	edgesPerStripe int64

	stripe  int // stripes opened so far
	written int64
	name    string
	cur     io.WriteCloser
	sink    EdgeSink
}

// writeEdges writes l, carving it along the stripe quotas and forwarding
// each piece to the codec.
func (s *stripeWriter) writeEdges(l *edge.List) error {
	for lo, hi := 0, l.Len(); lo < hi; {
		if s.sink == nil {
			if err := s.openNext(); err != nil {
				return err
			}
		}
		n := hi - lo
		if s.stripe < s.nfiles { // later stripes remain: honor this stripe's quota
			if room := s.edgesPerStripe - s.written; int64(n) > room {
				n = int(room)
			}
		}
		if err := WriteEdges(s.sink, l, lo, lo+n); err != nil {
			return s.fail(err)
		}
		s.written += int64(n)
		lo += n
		if s.written >= s.edgesPerStripe && s.stripe < s.nfiles {
			if err := s.closeCurrent(); err != nil {
				return err
			}
		}
	}
	return nil
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
	s.written = 0
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

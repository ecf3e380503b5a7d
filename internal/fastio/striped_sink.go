package fastio

import (
	"fmt"

	"repro/internal/edge"
	"repro/internal/vfs"
	"repro/internal/workteam"
)

// StripedSink is an EdgeSink that distributes an edge stream across a fixed
// number of stripe files: the stripe writer of the kernels that stream
// (WriteStripedWide writes a whole list, with the same bytes).  Its layout
// rule is cumulative: for a stream of the expected m edges, stripe i ends
// after edge ⌊(i+1)·m/nfiles⌋, so it holds ⌊(i+1)·m/nfiles⌋ − ⌊i·m/nfiles⌋
// of them, possibly none; the last stripe absorbs any overflow, and a
// shorter stream leaves the stripes past its end unwritten.  The caller's
// edges are staged in pieces of up to encodeChunk edges that end at each
// stripe's end and at each Flush, and one goroutine encodes and writes
// them behind the caller, in streamSlots slots (wide.go): a write error —
// `fastio: <stripe>: <cause>` — surfaces at a later write, at Flush or at
// Close, which wait for every edge written before them.  Close closes the
// last stripe and stops the goroutine.
type StripedSink struct {
	prefix   string
	codec    Codec
	enc      encoder
	nfiles   int
	expected int64
	ring     *workteam.Ring // nil until the first write
	slots    []pieceIn      // own: a piece's edges; head, name: the stripe it opens
	cur      *pieceIn       // the piece being staged, piece ring.Next()'s
	stripe   int            // stripes opened so far
	open     bool           // stripe stripe−1 takes more edges
	written  int64          // edges staged so far
	err      error          // the first error of a piece waited for
	out      stripeOut      // the goroutine's
	buf      []byte         // the goroutine's encoded bytes
}

// NewStripedSink returns a StripedSink writing nfiles stripes under prefix,
// laid out for a stream of expectedEdges edges.
func NewStripedSink(fs vfs.FS, prefix string, codec Codec, nfiles int, expectedEdges int64) (*StripedSink, error) {
	if nfiles < 1 {
		return nil, fmt.Errorf("fastio: nfiles = %d, want >= 1", nfiles)
	}
	enc, err := encoderOf(codec)
	if err != nil {
		return nil, err
	}
	return &StripedSink{prefix: prefix, codec: codec, enc: enc, nfiles: nfiles,
		expected: max(expectedEdges, 0), out: stripeOut{fs: fs}}, nil
}

// WriteEdge stages one edge.  Nothing calls it: kronecker.GenerateTo hands
// a StripedSink whole batches through WriteEdges.  It only completes the
// method set that lets a StripedSink stand for GenerateTo's per-edge writer
// parameter, which the benchmark harness (bench/replay.go) still passes.
// It goes when GenerateTo does (ROADMAP 10c: one streaming kernel 0), or
// when the harness's probe moves off GenerateTo (ROADMAP 1b).
func (s *StripedSink) WriteEdge(u, v uint64) error {
	return s.WriteEdges(&edge.List{U: []uint64{u}, V: []uint64{v}}, 0, 1)
}

// WriteEdges implements EdgeSink.
func (s *StripedSink) WriteEdges(l *edge.List, lo, hi int) error {
	for lo < hi && s.err == nil {
		if !s.open {
			s.openNext()
		}
		last := s.stripe == s.nfiles
		n := min(hi-lo, encodeChunk-s.cur.own.Len())
		if !last {
			n = int(min(int64(n), s.end()-s.written))
		}
		s.cur.own.U = append(s.cur.own.U, l.U[lo:lo+n]...)
		s.cur.own.V = append(s.cur.own.V, l.V[lo:lo+n]...)
		s.written += int64(n)
		lo += n
		if !last && s.written >= s.end() {
			s.open = false
			s.put()
		} else if s.cur.own.Len() == encodeChunk {
			s.put()
		}
	}
	return s.err
}

// end is the number of edges that end the open stripe, ⌊(i+1)·m/nfiles⌋
// for stripe i.
func (s *StripedSink) end() int64 {
	return int64(s.stripe) * s.expected / int64(s.nfiles)
}

// openNext makes the staged piece open the next stripe, starting the
// goroutine on first use.
func (s *StripedSink) openNext() {
	if s.ring == nil {
		s.ring = workteam.NewRing(1, streamSlots, s.encode)
		s.slots = make([]pieceIn, streamSlots)
		for i := range s.slots {
			s.slots[i].own = *edge.NewList(encodeChunk)
		}
		s.stage()
	}
	s.cur.head, s.cur.name = true, StripeName(s.prefix, s.codec, s.stripe)
	s.stripe++
	s.open = true
}

// put puts the staged piece and stages the next in the slot it frees.
func (s *StripedSink) put() {
	s.ring.Put()
	if s.ring.InFlight() == len(s.slots) {
		s.wait()
	}
	s.stage()
}

// stage makes the next piece's slot current, empty.
func (s *StripedSink) stage() {
	s.cur = &s.slots[s.ring.Next()%len(s.slots)]
	s.cur.own.Reset()
	s.cur.head = false
}

// wait waits for the oldest piece in flight and keeps its error if it is
// the first.
func (s *StripedSink) wait() {
	if err := s.slots[s.ring.Wait()%len(s.slots)].err; s.err == nil {
		s.err = err
	}
}

// encode is the goroutine's work: encode piece c and write it to its
// stripe, opening the stripe at its head, unless a write failed.
func (s *StripedSink) encode(c int) {
	p := &s.slots[c%len(s.slots)]
	if p.head {
		s.out.open(p.name)
	}
	if s.out.err == nil {
		s.buf = s.enc.appendEdges(s.buf[:0], &p.own, 0, p.own.Len(), p.head)
	}
	p.err = s.out.write(s.buf)
}

// Flush implements EdgeSink.  It is a barrier: it puts the staged edges as
// a piece of their own (a Packed block ends there) and returns once every
// edge written before it is in its stripe, with the first error.
func (s *StripedSink) Flush() error {
	if s.ring == nil {
		return s.err // nothing is written
	}
	if s.cur.own.Len() > 0 || s.cur.head {
		s.ring.Put()
	}
	for s.ring.InFlight() > 0 {
		s.wait()
	}
	s.stage()
	return s.err
}

// Close flushes the sink, closes the open stripe and stops the goroutine.
// A sink that received no edges at all still produces one empty stripe so
// readers find the prefix.  Later calls fail.
func (s *StripedSink) Close() error {
	if s.stripe == 0 {
		s.openNext()
	}
	if s.ring == nil {
		return s.err // closed
	}
	err := s.Flush()
	s.ring.Close()
	s.ring = nil
	if cerr := s.out.close(); err == nil {
		err = cerr
	}
	if s.err = err; err == nil {
		s.err = errClosed
	}
	return err
}

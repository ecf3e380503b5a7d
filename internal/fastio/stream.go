package fastio

import (
	"fmt"
	"io"

	"repro/internal/edge"
)

// One encoder and one decoder per format (DESIGN.md §9 "The codec
// interface"): a splitCodec's three methods run on a stream, through the
// blockWriter and blockReader its NewWriter and NewReader return, and on
// the pieces of a stripe pass or stream (wide.go).  Both readers read and
// cut through blocks, so the two give the same edges and the same errors.

// encoder is a Codec's one encoder.  Every codec of this package has one.
type encoder interface {
	Codec
	// appendEdges appends the encoding of l[lo:hi) to dst.  head is set
	// when the piece opens its stream; a Packed piece that does not end
	// its stream holds a multiple of PackedBlockEdges edges.
	appendEdges(dst []byte, l *edge.List, lo, hi int, head bool) []byte
}

// splitCodec is a Codec whose stream splits at record boundaries (Packed:
// block boundaries) into pieces that encode and decode on their own.
// TSV, Binary and Packed are; NaiveTSV, the interpreted-language
// stand-in, is not: it keeps its own reader, and reads and writes on one
// core.
type splitCodec interface {
	encoder
	// cut returns the length n of the longest prefix of b that holds
	// whole records and the number of edges in it.  head is set when b
	// opens its stream, eof when nothing follows b; err is a framing
	// error at b[n:], which the edges of b[:n] precede.
	cut(b []byte, head, eof bool) (n, edges int, err error)
	// decode decodes a prefix b that cut returned into us and vs, which
	// hold its edge count, and returns the edges decoded before an error;
	// line is the records of the stream before b.  The wordSlack+1 bytes
	// past b's end are scratch for decode.
	decode(b []byte, us, vs []uint64, head bool, line int) (int, error)
}

// blockWriter is an encoder's EdgeSink.  It encodes PackedBlockEdges
// edges at a time: straight from the caller's list while a write covers
// whole runs of them, else from edges it stages until a run is whole or
// Flush ends it.  So a Packed block ends every 4 096 edges of the stream
// and at each Flush, however the writes split it.  The bytes go to w once
// decodeBlock of them are encoded, and at Flush.
type blockWriter struct {
	codec encoder
	w     io.Writer
	buf   []byte    // encoded, not yet written
	stage edge.List // the open run's edges, fewer than PackedBlockEdges
	head  bool      // nothing is encoded yet: the next bytes open the stream
}

func newBlockWriter(c encoder, w io.Writer) *blockWriter {
	return &blockWriter{codec: c, w: w, head: true}
}

// WriteEdges implements EdgeSink.
func (s *blockWriter) WriteEdges(l *edge.List, lo, hi int) error {
	for lo < hi {
		if n := s.stage.Len(); n > 0 || hi-lo < PackedBlockEdges {
			k := min(hi-lo, PackedBlockEdges-n)
			s.stage.U = append(s.stage.U, l.U[lo:lo+k]...)
			s.stage.V = append(s.stage.V, l.V[lo:lo+k]...)
			if lo += k; s.stage.Len() < PackedBlockEdges {
				return nil
			}
			s.encode(&s.stage, 0, PackedBlockEdges)
			s.stage.Reset()
		} else {
			s.encode(l, lo, lo+PackedBlockEdges)
			lo += PackedBlockEdges
		}
		if len(s.buf) >= decodeBlock {
			if err := s.write(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *blockWriter) encode(l *edge.List, lo, hi int) {
	s.buf = s.codec.appendEdges(s.buf, l, lo, hi, s.head)
	s.head = false
}

// Flush implements EdgeSink.  It encodes the staged edges, and on an
// empty stream what opens one (the Packed magic), so that even an empty
// flushed stream is detectable on disk.
func (s *blockWriter) Flush() error {
	if s.stage.Len() > 0 || s.head {
		s.encode(&s.stage, 0, s.stage.Len())
		s.stage.Reset()
	}
	return s.write()
}

func (s *blockWriter) write() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// blocks reads a stream a block at a time and cuts each after its last
// whole record.  The carry rule: the bytes past a cut open the next block,
// so a record may straddle any number of reads (a short or one-byte Read
// is as good as a full one), and a record longer than a block doubles the
// next block until it fits.
type blocks struct {
	codec splitCodec
	r     io.Reader
	size  int    // bytes per block
	carry []byte // the bytes past the last cut
	head  bool   // the next cut opens the stream
	line  int    // records before the next cut
}

// next reads the next block into p.buf, growing it if it is short, and
// cuts it: p.n bytes of whole records, and the head and line decode needs.
// It returns their count, and what follows them: nil if more of the
// stream does, io.EOF if nothing does, or a framing or read error.
func (s *blocks) next(p *pieceIn) (edges int, err error) {
	size := max(s.size, 2*len(s.carry))
	if cap(p.buf) < size+1+wordSlack {
		p.buf = make([]byte, size+1+wordSlack)
	}
	b := append(p.buf[:0], s.carry...)
	k, err := readFull(s.r, b[len(b):size])
	b = b[:len(b)+k]
	n, edges, cerr := s.codec.cut(b, s.head, err == io.EOF)
	if cerr != nil {
		err = cerr
	} else if _, tsv := s.codec.(TSV); tsv && err != nil && err != io.EOF {
		// tsv places a read error, as every error, on the line it cuts short.
		err = fmt.Errorf("fastio: line %d: %w", s.line+edges+1, err)
	}
	s.carry = append(s.carry[:0], b[n:]...)
	p.buf, p.n, p.head, p.line = b, n, s.head, s.line
	s.head = s.head && n == 0
	s.line += edges
	return edges, err
}

// readFull reads into b until it is full, the input ends or fails, or 100
// reads in a row return nothing (io.ErrNoProgress).
func readFull(r io.Reader, b []byte) (n int, err error) {
	for empty := 0; n < len(b) && err == nil; {
		var k int
		k, err = r.Read(b[n:])
		if n, empty = n+k, empty+1; k > 0 {
			empty = 0
		} else if empty == 100 && err == nil {
			err = io.ErrNoProgress
		}
	}
	return n, err
}

// blockReader is a splitCodec's EdgeSource.  It decodes a block's whole
// records straight into the caller's list when they fit in its spare
// capacity and in max, or else into a stage that reads drain.
type blockReader struct {
	blocks
	p     pieceIn   // the block being read
	stage edge.List // decoded edges not yet returned: stage[pos:]
	pos   int
	err   error // what follows the decoded edges: io.EOF or the first error
	// inBlock is set when err is a decode error, which comes with its
	// block's last edges; a framing or read error waits for the next read.
	inBlock bool
}

func newBlockReader(c splitCodec, r io.Reader, size int) *blockReader {
	s := &blockReader{blocks: blocks{codec: c, r: r, size: size, carry: make([]byte, 0, maxRecord), head: true}}
	s.p.buf = make([]byte, size+1+wordSlack)
	return s
}

// ReadEdges implements EdgeSource.  It reads until it has max edges, the
// stream ends or fails, or a block decodes straight into l.
func (s *blockReader) ReadEdges(l *edge.List, max int) (int, error) {
	n := 0
	for direct := false; n < max && !direct && (s.pos < s.stage.Len() || s.err == nil); {
		if s.pos == s.stage.Len() {
			k := s.decode(l, max-n)
			n, direct = n+k, k > 0
			continue
		}
		k := min(max-n, s.stage.Len()-s.pos)
		l.U = append(l.U, s.stage.U[s.pos:s.pos+k]...)
		l.V = append(l.V, s.stage.V[s.pos:s.pos+k]...)
		s.pos += k
		n += k
	}
	if s.pos < s.stage.Len() || s.err == nil || n > 0 && !s.inBlock {
		return n, nil
	}
	return n, s.err
}

// decode reads, cuts and decodes the next block, into l or the stage, and
// returns the edges it appended to l.
func (s *blockReader) decode(l *edge.List, max int) int {
	edges, err := s.next(&s.p)
	to := l
	if edges > max || l.Len()+edges > min(cap(l.U), cap(l.V)) {
		to, s.pos = &s.stage, 0
		s.stage.Reset()
		s.stage.Grow(edges)
	}
	lo, k := to.Len(), 0
	if s.p.n > 0 {
		var derr error
		k, derr = s.codec.decode(s.p.buf[:s.p.n], to.U[lo:lo+edges], to.V[lo:lo+edges], s.p.head, s.p.line)
		if derr != nil {
			err, s.inBlock = derr, true // it precedes the rest of the block
		}
	}
	to.U, to.V = to.U[:lo+k], to.V[:lo+k]
	s.err = err
	if to == l {
		return k
	}
	return 0
}

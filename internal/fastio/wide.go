package fastio

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/vfs"
	"repro/internal/workteam"
)

// Whole-list stripe I/O, workers wide (DESIGN.md §9 "Wide codec passes").
// WriteStripedWide encodes a list in pieces of encodeChunk edges, and
// ReadStripedInto decodes stripes in pieces of about decodeBlock bytes.
// Each runs its pieces on a workteam.Wide ring: workers goroutines encode
// or decode them in up to 2·workers slots while the caller writes or
// reads the slots' bytes in piece order.  A piece holds whole records
// (Packed: whole blocks, on 4096-edge multiples of its stripe), and runs
// through the codec's one encoder or decoder (stream.go), so the bytes,
// the edges and the first error are a stream's at every width.

const (
	// encodeChunk is the edges per encoded piece: two Packed blocks.
	encodeChunk = 2 * PackedBlockEdges
	// decodeBlock is the bytes read per decoded piece, or per block of a
	// stream.
	decodeBlock = 64 << 10
)

// WriteStripedWide is WriteStriped on workers goroutines (<= 0 means
// GOMAXPROCS), with the same bytes at every width.  One worker starts no
// goroutine; NaiveTSV always encodes behind a StripedSink.
func WriteStripedWide(fs vfs.FS, prefix string, codec Codec, nfiles int, l *edge.List, workers int) error {
	return writeStriped(fs, prefix, codec, nfiles, l, workers, encodeChunk)
}

// span is a run of edges [lo, hi) of stripe; head is set when it opens
// the stripe.
type span struct {
	stripe, lo, hi int
	head           bool
}

// spans cuts m edges into nfiles stripes, stripe i holding the edges
// [⌊i·m/nfiles⌋, ⌊(i+1)·m/nfiles⌋), and each stripe into pieces of chunk
// edges from its start.  An empty stripe is one empty piece, and no edges
// at all make one stripe.
func spans(m, nfiles, chunk int) []span {
	if m == 0 {
		nfiles = 1
	}
	var out []span
	for i := range nfiles {
		lo, end := stripeStart(i, m, nfiles), stripeStart(i+1, m, nfiles)
		for head := true; head || lo < end; head = false {
			hi := min(lo+chunk, end)
			out = append(out, span{i, lo, hi, head})
			lo = hi
		}
	}
	return out
}

// stripeStart is ⌊i·m/nfiles⌋, the first edge of stripe i.
func stripeStart(i, m, nfiles int) int { return int(int64(i) * int64(m) / int64(nfiles)) }

// writeStriped is WriteStripedWide with pieces of chunk edges, a multiple
// of PackedBlockEdges.  A codec that cannot split writes through a
// StripedSink.
func writeStriped(fs vfs.FS, prefix string, codec Codec, nfiles int, l *edge.List, workers, chunk int) error {
	if nfiles < 1 {
		return fmt.Errorf("fastio: nfiles = %d, want >= 1", nfiles)
	}
	sc, ok := codec.(splitCodec)
	if !ok {
		s, err := NewStripedSink(fs, prefix, codec, nfiles, int64(l.Len()))
		if err != nil {
			return err
		}
		err = WriteEdges(s, l, 0, l.Len())
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		return err
	}
	pieces := spans(l.Len(), nfiles, chunk)
	var bufs [][]byte
	r := workteam.Wide(min(workteam.Width(workers), len(pieces)), func(c int) {
		p, b := pieces[c], &bufs[c%len(bufs)]
		*b = sc.appendEdges((*b)[:0], l, p.lo, p.hi, p.head)
	})
	bufs = make([][]byte, r.Slots())
	for r.Next() < min(len(bufs), len(pieces)) {
		r.Put()
	}
	var w io.WriteCloser // the open stripe
	var name string
	var err error
	for c, p := range pieces {
		r.Wait()
		if p.head {
			if w != nil {
				err, w = w.Close(), nil
			}
			if err == nil {
				name = StripeName(prefix, codec, p.stripe)
				w, err = fs.Create(name)
			}
		}
		if b := bufs[c%len(bufs)]; err == nil && len(b) > 0 {
			_, err = w.Write(b)
		}
		if err != nil {
			break
		}
		if r.Next() < len(pieces) {
			r.Put()
		}
	}
	r.Close()
	if w != nil {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("fastio: %s: %w", name, err)
	}
	return nil
}

// readStriped is ReadStripedInto reading pieces of about block bytes.
func readStriped(fs vfs.FS, prefix string, codec Codec, dst *edge.List, workers, block int) (*edge.List, error) {
	names, err := StripeNames(fs, prefix, codec)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = edge.NewList(0)
	}
	dst.Reset()
	sc, ok := codec.(splitCodec)
	if !ok {
		in := stripeReader{fs: fs, codec: codec, names: names}
		defer in.close()
		for {
			if _, err := in.readEdges(dst, readChunkEdges); err != nil {
				if err == io.EOF {
					return dst, nil
				}
				return nil, err
			}
		}
	}
	in := pieceReader{blocks: blocks{codec: sc, size: block}, dst: dst}
	if err := in.run(fs, names, workers); err != nil {
		return nil, err
	}
	return in.dst, nil
}

// A PieceSink consumes a stripe set piece by piece (ReadPieces): a worker
// hands it each piece's edges, and the caller then takes the pieces in
// stream order.  Piece c owns slot c mod the slots Start announced until
// it is taken, so a sink may keep per-slot state without locks.
type PieceSink interface {
	// Start is called once, before any piece, with the number of slots.
	Start(slots int)
	// Piece runs on a worker with the edges of the piece in slot, which
	// has off edges of the stream before it.  Its error, else the piece's
	// decode error, is the piece's error.
	Piece(slot, off int, us, vs []uint64) error
	// Take runs on the caller, for each piece in stream order until one
	// returns an error, once its Piece has returned, with the piece's
	// error; what Take returns is the read's error.
	Take(slot int, err error) error
}

// ReadPieces reads the stripes of prefix into sink, piece by piece, on
// workers goroutines (<= 0 means GOMAXPROCS; one starts none): each worker
// decodes a piece of about block bytes (<= 0 means decodeBlock) into its
// slot's own lists and runs sink.Piece on it, while the caller reads and
// cuts the stripes and takes the done pieces in order.  NaiveTSV pieces
// are block/16 edges (the bytes they decode into), decoded on the caller's
// goroutine.  The cut and the first error are ReadStripedInto's, and the
// memory beyond the sink's is O(slots · block).  It returns the edges
// read.
func ReadPieces(fs vfs.FS, prefix string, codec Codec, workers, block int, sink PieceSink) (int, error) {
	names, err := StripeNames(fs, prefix, codec)
	if err != nil {
		return 0, err
	}
	if block <= 0 {
		block = decodeBlock
	}
	in := pieceReader{sink: sink}
	if sc, ok := codec.(splitCodec); ok {
		in.blocks = blocks{codec: sc, size: block}
		err = in.run(fs, names, workers)
	} else {
		err = in.runNaive(stripeReader{fs: fs, codec: codec, names: names}, workers, max(1, block/16))
	}
	return in.edges, err
}

// pieceReader is readStriped's and ReadPieces' state: the caller reads
// each stripe into the ring's slots and cuts each after its last whole
// record (blocks); the workers decode the records straight into their
// place in dst, or into the slot's own lists for the sink.
type pieceReader struct {
	blocks // the stripe being read
	dst    *edge.List
	sink   PieceSink
	slots  []pieceIn
	ring   *workteam.Ring
	edges  int   // edges put so far
	err    error // the first decode, sink or Take error, in piece order
}

// pieceIn is one slot of a pieceReader's ring, or a blockReader's block.
type pieceIn struct {
	buf    []byte   // the piece's bytes, then wordSlack+1 bytes of room
	n      int      // bytes of buf the piece decodes
	us, vs []uint64 // its edges' place in dst or own
	own    edge.List
	head   bool // it opens its stripe
	line   int  // edges of its stripe before it
	off    int  // edges of the stream before it
	name   string
	err    error
}

// run reads the stripes names through the ring, and returns the first
// error in stream order.
func (in *pieceReader) run(fs vfs.FS, names []string, workers int) error {
	in.start(workers, in.decode)
	var err error
	for _, name := range names {
		if err = in.stripe(fs, name); err != nil || in.err != nil {
			break
		}
	}
	return in.finish(err)
}

// runNaive is run for a codec that cannot split: the caller decodes each
// piece of edges edges into its slot, and the workers run the sink on it.
func (in *pieceReader) runNaive(src stripeReader, workers, edges int) error {
	defer src.close()
	in.start(workers, in.build)
	for {
		if in.ring.InFlight() == len(in.slots) {
			in.collect()
		}
		if in.err != nil {
			return in.finish(nil)
		}
		p := &in.slots[in.ring.Next()%len(in.slots)]
		p.own.Reset()
		n, err := src.readEdges(&p.own, edges)
		if n > 0 {
			if err != io.EOF {
				p.err = err // the piece's edges precede it
			}
			p.us, p.vs, p.off = p.own.U, p.own.V, in.edges
			in.edges += n
			in.ring.Put()
		}
		switch {
		case err == io.EOF || err != nil && n > 0: // the piece carries err
			return in.finish(nil)
		case err != nil:
			return in.finish(err)
		}
	}
}

// start makes the ring and its slots.
func (in *pieceReader) start(workers int, work func(c int)) {
	in.ring = workteam.Wide(workers, work)
	in.slots = make([]pieceIn, in.ring.Slots())
	if in.sink != nil {
		in.sink.Start(len(in.slots))
	}
}

// finish collects the pieces in flight and stops the ring.  A piece's
// error precedes err, which stopped the reads after it.
func (in *pieceReader) finish(err error) error {
	for in.ring.InFlight() > 0 {
		in.collect()
	}
	in.ring.Close()
	if in.err != nil {
		return in.err
	}
	return err
}

// decode is the ring's work: decode piece c, and hand it to the sink.
func (in *pieceReader) decode(c int) {
	p := &in.slots[c%len(in.slots)]
	k, err := in.codec.decode(p.buf[:p.n], p.us, p.vs, p.head, p.line)
	if err != nil {
		err = fmt.Errorf("fastio: %s: %w", p.name, err)
	}
	if in.sink != nil {
		if serr := in.sink.Piece(c%len(in.slots), p.off, p.us[:k], p.vs[:k]); serr != nil {
			err = serr
		}
	}
	p.err = err
}

// build is runNaive's work: hand piece c to the sink.
func (in *pieceReader) build(c int) {
	p := &in.slots[c%len(in.slots)]
	if err := in.sink.Piece(c%len(in.slots), p.off, p.us, p.vs); err != nil {
		p.err = err
	}
}

// collect waits for the oldest piece in flight, has the sink take it, and
// keeps its error if it is the first.
func (in *pieceReader) collect() {
	slot := in.ring.Wait() % len(in.slots)
	p := &in.slots[slot]
	if in.err == nil {
		in.err = p.err
		if in.sink != nil {
			in.err = in.sink.Take(slot, p.err)
		}
	}
	p.err = nil
}

// stripe reads the stripe name into pieces and puts them, until its end,
// a read or framing error (returned) or a piece's error (in.err).
func (in *pieceReader) stripe(fs vfs.FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return fmt.Errorf("fastio: %s: %w", name, err)
	}
	defer f.Close()
	in.r, in.head, in.line, in.carry = f, true, 0, in.carry[:0]
	for err == nil {
		if in.ring.InFlight() == len(in.slots) {
			in.collect() // the piece whose slot the next one takes
		}
		if in.err != nil {
			return nil
		}
		p := &in.slots[in.ring.Next()%len(in.slots)]
		var edges int
		if edges, err = in.next(p); p.n == 0 {
			continue
		}
		if in.sink != nil {
			if cap(p.own.U) < edges {
				p.own = *edge.Make(edges + edges/4) // pieces vary a little
			}
			p.us, p.vs = p.own.U[:edges], p.own.V[:edges]
		} else {
			off := in.dst.Len()
			if off+edges > min(cap(in.dst.U), cap(in.dst.V)) {
				// Every piece in flight decodes into dst's arrays.
				for in.ring.InFlight() > 0 {
					in.collect()
				}
				if in.err != nil {
					return nil
				}
				in.dst.Grow(edges)
			}
			d := in.dst
			d.U, d.V = d.U[:off+edges], d.V[:off+edges]
			p.us, p.vs = d.U[off:], d.V[off:]
		}
		p.name, p.off = name, in.edges
		in.edges += edges
		in.ring.Put()
	}
	if err != io.EOF {
		return fmt.Errorf("fastio: %s: %w", name, err)
	}
	return nil
}

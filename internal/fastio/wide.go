package fastio

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/vfs"
	"repro/internal/workteam"
)

// Stripe I/O on pieces (DESIGN.md §9 "Wide codec passes" and "Streamed
// stripes").  Every reader and writer of a stripe set cuts it into pieces
// that hold whole records (Packed: whole blocks, on 4096-edge multiples of
// its stripe) and runs each through the codec's one encoder or decoder
// (stream.go) on a workteam.Ring, so the bytes, the edges and the first
// error are the same on every path and at every width.  WriteStripedWide
// and ReadStripedInto run a whole list's pieces on workers goroutines, in
// up to 2·workers slots, while the caller writes or reads the slots' bytes
// in piece order.  A StripedSink encodes and writes, and a StripedSource
// decodes, one stream's pieces on one goroutine, behind or ahead of the
// caller, in streamSlots slots.

const (
	// encodeChunk is the most edges per encoded piece: two Packed blocks.
	encodeChunk = 2 * PackedBlockEdges
	// decodeBlock is the most bytes read per decoded piece of a whole
	// list, or per block of a Codec's reader.
	decodeBlock = 64 << 10
	// streamBlock is the bytes read per piece of a StripedSource.  A slot
	// holds them and the edges they decode to, ~200 KB at Packed's 4 bytes
	// a sorted edge.
	streamBlock = 32 << 10
	// streamSlots is a stream's slots: one the caller fills or drains and
	// one its goroutine encodes or decodes.
	streamSlots = 2
)

// WriteStripedWide is WriteStriped on workers goroutines (<= 0 means
// GOMAXPROCS), with the same bytes at every width.  One worker starts no
// goroutine, and NaiveTSV always encodes on the caller's.  A piece is
// encodeChunk edges, or m/(64·workers) in whole Packed blocks if that is
// fewer, so the slots hold about m/32 edges' bytes on any number of cores.
func WriteStripedWide(fs vfs.FS, prefix string, codec Codec, nfiles int, l *edge.List, workers int) error {
	chunk := min(encodeChunk, l.Len()/(64*workteam.Width(workers))) &^ (PackedBlockEdges - 1)
	return writeStriped(fs, prefix, codec, nfiles, l, workers, max(PackedBlockEdges, chunk))
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

// encoderOf is codec's encoder.  Every codec of this package has one.
func encoderOf(codec Codec) (encoder, error) {
	if e, ok := codec.(encoder); ok {
		return e, nil
	}
	return nil, fmt.Errorf("fastio: codec %s has no encoder", codec.Name())
}

// writeStriped is WriteStripedWide with pieces of chunk edges, a multiple
// of PackedBlockEdges, at exactly workers wide.
func writeStriped(fs vfs.FS, prefix string, codec Codec, nfiles int, l *edge.List, workers, chunk int) error {
	if nfiles < 1 {
		return fmt.Errorf("fastio: nfiles = %d, want >= 1", nfiles)
	}
	enc, err := encoderOf(codec)
	if err != nil {
		return err
	}
	if _, ok := codec.(splitCodec); !ok {
		workers = 1
	}
	pieces := spans(l.Len(), nfiles, chunk)
	var bufs [][]byte
	r := workteam.Wide(min(workteam.Width(workers), len(pieces)), func(c int) {
		p, b := pieces[c], &bufs[c%len(bufs)]
		*b = enc.appendEdges((*b)[:0], l, p.lo, p.hi, p.head)
	})
	bufs = make([][]byte, r.Slots())
	for r.Next() < min(len(bufs), len(pieces)) {
		r.Put()
	}
	out := stripeOut{fs: fs}
	for c, p := range pieces {
		r.Wait()
		if p.head {
			out.open(StripeName(prefix, codec, p.stripe))
		}
		if out.write(bufs[c%len(bufs)]) != nil {
			break
		}
		if r.Next() < len(pieces) {
			r.Put()
		}
	}
	r.Close()
	return out.close()
}

// stripeOut writes a stream's encoded pieces to its stripes, in piece
// order.  Its first error names the stripe and ends the writes.
type stripeOut struct {
	fs   vfs.FS
	w    io.WriteCloser // the open stripe, or nil
	name string
	err  error
}

// open closes the open stripe and creates name, unless a write failed.
func (o *stripeOut) open(name string) {
	if o.close() == nil {
		o.name = name
		w, err := o.fs.Create(name)
		if o.fail(err) == nil {
			o.w = w
		}
	}
}

// write writes b to the open stripe, unless a write failed, and returns
// the first error.
func (o *stripeOut) write(b []byte) error {
	if o.err == nil && len(b) > 0 {
		_, err := o.w.Write(b)
		o.fail(err)
	}
	return o.err
}

// close closes the open stripe, if any, and returns the first error.
func (o *stripeOut) close() error {
	if w := o.w; w != nil {
		o.w = nil
		o.fail(w.Close())
	}
	return o.err
}

// fail keeps err, naming the stripe, if it is the first, and returns the
// first.
func (o *stripeOut) fail(err error) error {
	if err != nil && o.err == nil {
		o.err = fmt.Errorf("fastio: %s: %w", o.name, err)
	}
	return o.err
}

// ReadStripedInto is ReadStriped decoding into dst's storage on workers
// goroutines (<= 0 means GOMAXPROCS; one starts none, and NaiveTSV always
// decodes on the caller's).  dst is truncated first and grows, as append
// grows it, only if the stripes hold more edges than it has room for, so
// a list of the right size is filled in place.  A nil dst is a new list.
// dst's previous contents are lost even when the read fails.  The edges,
// and the error — `fastio: <file>: <cause>`, the first in stream order —
// are a StripedSource's at every width.  A piece is decodeBlock bytes, or
// a 32·workers-th of the stripes if that is less (but 4 KiB at least), so
// the slots hold at most a sixteenth of them on any number of cores.
func ReadStripedInto(fs vfs.FS, prefix string, codec Codec, dst *edge.List, workers int) (*edge.List, error) {
	size, err := StripedBytes(fs, prefix, codec)
	if err != nil {
		return nil, err
	}
	block := min(decodeBlock, size/int64(32*workteam.Width(workers)))
	return readStriped(fs, prefix, codec, dst, workers, max(4<<10, int(block)))
}

// readStriped is ReadStripedInto reading pieces of about block bytes, at
// exactly workers wide.
func readStriped(fs vfs.FS, prefix string, codec Codec, dst *edge.List, workers, block int) (*edge.List, error) {
	names, err := StripeNames(fs, prefix, codec)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = edge.NewList(0)
	}
	dst.Reset()
	in := newPieceReader(fs, codec, names, block)
	if in.naive != nil {
		workers = 1
	}
	in.dst = dst
	if err := in.run(workers); err != nil {
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
	in := newPieceReader(fs, codec, names, block)
	in.sink = sink
	err = in.run(workers)
	return in.edges, err
}

// pieceReader is the state of a read of the stripes names: the caller
// reads each stripe into the ring's slots and cuts each after its last
// whole record (blocks), and the ring decodes the records straight into
// their place in dst, or else into the slot's own lists, for the sink or a
// StripedSource.  NaiveTSV, which cannot cut, is decoded on the caller,
// block/16 edges to a piece, through naive.
type pieceReader struct {
	blocks // the stripe being read; codec is nil for NaiveTSV
	fs     vfs.FS
	names  []string
	stripe int           // the stripes opened so far
	f      io.ReadCloser // the open stripe, or nil
	naive  *stripeReader
	dst    *edge.List
	sink   PieceSink
	slots  []pieceIn
	ring   *workteam.Ring
	edges  int   // edges put so far
	err    error // the first decode, sink or Take error of a piece collected
}

// pieceIn is one slot of a pieceReader's ring, or of a StripedSink's, or a
// blockReader's block.
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

func newPieceReader(fs vfs.FS, codec Codec, names []string, block int) pieceReader {
	in := pieceReader{blocks: blocks{size: block}, fs: fs, names: names}
	if sc, ok := codec.(splitCodec); ok {
		in.codec = sc
	} else {
		in.naive = &stripeReader{fs: fs, codec: codec, names: names}
	}
	return in
}

// run reads the whole stream through a ring of workers goroutines, and
// returns the first error in stream order.
func (in *pieceReader) run(workers int) error {
	in.start(workteam.Wide(workers, in.decode))
	var err error
	for err == nil && in.err == nil {
		if in.ring.InFlight() == len(in.slots) {
			in.collect() // the piece whose slot the next one takes
		} else {
			err = in.put()
		}
	}
	if err == io.EOF {
		err = nil
	}
	in.stop()
	if in.err != nil {
		return in.err // it precedes err, which stopped the reads after it
	}
	return err
}

// start makes the ring's slots.
func (in *pieceReader) start(r *workteam.Ring) {
	in.ring = r
	in.slots = make([]pieceIn, r.Slots())
	if in.sink != nil {
		in.sink.Start(len(in.slots))
	}
}

// stop collects the pieces in flight, stops the ring and closes the open
// stripe.
func (in *pieceReader) stop() {
	for in.ring.InFlight() > 0 {
		in.collect()
	}
	in.ring.Close()
	if in.naive != nil {
		in.naive.close()
	} else if in.f != nil {
		in.f.Close()
		in.f = nil
	}
}

// put puts the stream's next piece into the ring's next slot, which the
// caller has freed.  It returns nil once it has put one, io.EOF past the
// last stripe, or the error that stops the stream after the pieces put: an
// open, read or framing error, which names the stripe, or the first error
// of a piece it collected to grow dst.
func (in *pieceReader) put() error {
	p := &in.slots[in.ring.Next()%len(in.slots)]
	p.err = nil
	if in.naive != nil {
		to := in.dst // dst takes the edges as they decode; no piece is put
		if to == nil {
			to = &p.own
			to.Reset()
		}
		n, err := in.naive.readEdges(to, max(1, in.size/16))
		if n > 0 && in.dst == nil {
			if err != io.EOF {
				p.err = err // the piece's edges precede it
			}
			p.us, p.vs, p.off = p.own.U, p.own.V, in.edges
			in.edges += n
			in.ring.Put()
		}
		return err
	}
	for {
		if in.f == nil {
			if in.stripe == len(in.names) {
				return io.EOF
			}
			name := in.names[in.stripe]
			f, err := in.fs.Open(name)
			if err != nil {
				return fmt.Errorf("fastio: %s: %w", name, err)
			}
			in.stripe++
			in.f, in.r, in.head, in.line, in.carry = f, f, true, 0, in.carry[:0]
		}
		name := in.names[in.stripe-1]
		edges, err := in.next(p)
		if err != nil {
			in.f.Close()
			in.f = nil
		}
		if p.n > 0 {
			if err := in.place(p, edges); err != nil {
				return err
			}
			p.name, p.off = name, in.edges
			in.edges += edges
			in.ring.Put()
		}
		switch {
		case err != nil && err != io.EOF:
			return fmt.Errorf("fastio: %s: %w", name, err)
		case p.n > 0:
			return nil // the next stripe, at io.EOF, opens on the next put
		}
	}
}

// place points piece p at the room its edges decode into: the slot's own
// lists, or their place in dst.  Every piece in flight decodes into dst's
// arrays, so dst grows only once they are collected, and the first error
// of one stops the read.
func (in *pieceReader) place(p *pieceIn, edges int) error {
	if in.dst == nil {
		if cap(p.own.U) < edges {
			p.own = *edge.Make(edges + edges/4) // pieces vary a little
		}
		p.us, p.vs = p.own.U[:edges], p.own.V[:edges]
		return nil
	}
	off := in.dst.Len()
	if off+edges > min(cap(in.dst.U), cap(in.dst.V)) {
		for in.ring.InFlight() > 0 {
			in.collect()
		}
		if in.err != nil {
			return in.err
		}
		in.dst.Grow(edges)
	}
	d := in.dst
	d.U, d.V = d.U[:off+edges], d.V[:off+edges]
	p.us, p.vs = d.U[off:], d.V[off:]
	return nil
}

// decode is the ring's work: decode piece c, unless it arrived decoded
// (NaiveTSV), and hand it to the sink.
func (in *pieceReader) decode(c int) {
	p := &in.slots[c%len(in.slots)]
	if in.codec != nil {
		k, err := in.codec.decode(p.buf[:p.n], p.us, p.vs, p.head, p.line)
		if err != nil {
			p.err = fmt.Errorf("fastio: %s: %w", p.name, err)
		}
		p.us, p.vs = p.us[:k], p.vs[:k]
	}
	if in.sink != nil {
		if err := in.sink.Piece(c%len(in.slots), p.off, p.us, p.vs); err != nil {
			p.err = err
		}
	}
}

// collect waits for the oldest piece in flight, has the sink take it, and
// keeps its error if it is the first.
func (in *pieceReader) collect() {
	slot := in.ring.Wait() % len(in.slots)
	if p := &in.slots[slot]; in.err == nil {
		in.err = p.err
		if in.sink != nil {
			in.err = in.sink.Take(slot, p.err)
		}
	}
}

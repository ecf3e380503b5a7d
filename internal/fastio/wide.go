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
	in.ring = workteam.Wide(workers, in.decode)
	in.slots = make([]pieceIn, in.ring.Slots())
	for _, name := range names {
		if err = in.stripe(fs, name); err != nil || in.err != nil {
			break
		}
	}
	for in.ring.InFlight() > 0 {
		in.collect()
	}
	in.ring.Close()
	if in.err != nil { // a decode error precedes what stopped the reads
		err = in.err
	}
	if err != nil {
		return nil, err
	}
	return in.dst, nil
}

// pieceReader is readStriped's state: the caller reads each stripe into
// the ring's slots and cuts each after its last whole record (blocks); the
// workers decode the records straight into their place in dst.
type pieceReader struct {
	blocks // the stripe being read
	dst    *edge.List
	slots  []pieceIn
	ring   *workteam.Ring
	err    error // the first decode error, in piece order
}

// pieceIn is one slot of a pieceReader's ring, or a blockReader's block.
type pieceIn struct {
	buf    []byte   // the piece's bytes, then wordSlack+1 bytes of room
	n      int      // bytes of buf the piece decodes
	us, vs []uint64 // its edges' place in dst
	head   bool     // it opens its stripe
	line   int      // edges of its stripe before it
	name   string   // its stripe
	err    error
}

// decode is the ring's work: decode piece c.
func (in *pieceReader) decode(c int) {
	p := &in.slots[c%len(in.slots)]
	if _, err := in.codec.decode(p.buf[:p.n], p.us, p.vs, p.head, p.line); err != nil {
		p.err = fmt.Errorf("fastio: %s: %w", p.name, err)
	}
}

// collect waits for the oldest piece in flight and keeps its error if it
// is the first.
func (in *pieceReader) collect() {
	p := &in.slots[in.ring.Wait()%len(in.slots)]
	if in.err == nil {
		in.err = p.err
	}
	p.err = nil
}

// stripe reads the stripe name into pieces and puts them, until its end,
// a read or framing error (returned) or a decode error (in.err).
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
		p.us, p.vs, p.name = d.U[off:], d.V[off:], name
		in.ring.Put()
	}
	if err != io.EOF {
		return fmt.Errorf("fastio: %s: %w", name, err)
	}
	return nil
}

package fastio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// Whole-list stripe I/O, workers wide (DESIGN.md §9 "Wide codec passes").
// WriteStripedWide encodes a list in pieces of encodeChunk edges, and
// ReadStripedInto decodes stripes in pieces of about decodeBlock bytes.
// Each runs its pieces on a ring: workers goroutines encode or decode
// them in up to 2·workers slots while the caller writes or reads the
// slots' bytes in piece order.  A piece holds whole records (Packed:
// whole blocks, on 4096-edge multiples of its stripe), so the bytes, the
// edges and the first error are the serial ones at every width.

const (
	// encodeChunk is the edges per encoded piece: two Packed blocks.
	encodeChunk = 2 * PackedBlockEdges
	// decodeBlock is the bytes the caller reads per decoded piece.
	decodeBlock = 64 << 10
)

// splitCodec is a Codec whose stream splits at record boundaries (Packed:
// block boundaries) into pieces that encode and decode on their own.
// TSV, Binary and Packed are; NaiveTSV, the interpreted-language
// stand-in, is not, and its whole-list passes stay on one core.
type splitCodec interface {
	Codec
	// appendEdges appends the encoding of l[lo:hi) to dst.  head is set
	// when the piece opens its stream; a Packed piece that does not end
	// its stream holds a multiple of PackedBlockEdges edges.
	appendEdges(dst []byte, l *edge.List, lo, hi int, head bool) []byte
	// cut returns the length n of the longest prefix of b that holds
	// whole records and the number of edges in it.  head is set when b
	// opens its stream, eof when nothing follows b; err is a framing
	// error at b[n:], which the edges of b[:n] precede.
	cut(b []byte, head, eof bool) (n, edges int, err error)
	// decode decodes a prefix b that cut returned into us and vs, which
	// hold its edge count; line is the records of the stream before b.
	// The wordSlack+1 bytes past b's end are scratch for decode.
	decode(b []byte, us, vs []uint64, head bool, line int) error
}

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
	bufs := make([][]byte, ringSlots(min(width(workers), len(pieces))))
	r := newRing(len(bufs), func(c int) {
		p, b := pieces[c], &bufs[c%len(bufs)]
		*b = sc.appendEdges((*b)[:0], l, p.lo, p.hi, p.head)
	})
	for r.put < min(len(bufs), len(pieces)) {
		r.next()
	}
	var w io.WriteCloser // the open stripe
	var name string
	var err error
	for c, p := range pieces {
		r.wait()
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
		if r.put < len(pieces) {
			r.next()
		}
	}
	r.close()
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
	in := pieceReader{codec: sc, dst: dst, block: block, slots: make([]pieceIn, ringSlots(width(workers)))}
	in.ring = newRing(len(in.slots), in.decode)
	for _, name := range names {
		if err = in.stripe(fs, name); err != nil || in.err != nil {
			break
		}
	}
	for in.ring.waited < in.ring.put {
		in.collect()
	}
	in.ring.close()
	if in.err != nil {
		return nil, in.err
	}
	if err != nil {
		return nil, err
	}
	return in.dst, nil
}

// pieceReader is readStriped's state: the caller reads each stripe into
// the ring's slots, cuts each after its last whole record and puts it;
// the workers decode the records straight into their place in dst.
type pieceReader struct {
	codec splitCodec
	dst   *edge.List
	block int
	slots []pieceIn
	ring  *ring
	carry []byte // the bytes past the last cut, which open the next piece
	err   error  // the first decode error, in piece order
}

// pieceIn is one slot of a pieceReader's ring.
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
	if err := in.codec.decode(p.buf[:p.n], p.us, p.vs, p.head, p.line); err != nil {
		p.err = fmt.Errorf("fastio: %s: %w", p.name, err)
	}
}

// collect waits for the oldest piece in flight and keeps its error if it
// is the first.
func (in *pieceReader) collect() {
	p := &in.slots[in.ring.wait()%len(in.slots)]
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
	start, head, eof := in.dst.Len(), true, false
	in.carry = in.carry[:0]
	for !eof {
		if in.ring.put-in.ring.waited == len(in.slots) {
			in.collect() // the piece whose slot the next one takes
		}
		if in.err != nil {
			return nil
		}
		p := &in.slots[in.ring.put%len(in.slots)]
		size := max(in.block, 2*len(in.carry)) // a record longer than a block doubles it
		if cap(p.buf) < size+1+wordSlack {
			p.buf = make([]byte, size+1+wordSlack)
		}
		b := append(p.buf[:0], in.carry...)
		k, err := io.ReadFull(f, b[len(b):size])
		b = b[:len(b)+k]
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			eof = true
		case err != nil:
			return fmt.Errorf("fastio: %s: %w", name, err)
		}
		n, edges, cerr := in.codec.cut(b, head, eof)
		in.carry = append(in.carry[:0], b[n:]...)
		if n > 0 {
			off := in.dst.Len()
			if off+edges > min(cap(in.dst.U), cap(in.dst.V)) {
				// Every piece in flight decodes into dst's arrays.
				for in.ring.waited < in.ring.put {
					in.collect()
				}
				if in.err != nil {
					return nil
				}
				in.dst.Grow(edges)
			}
			d := in.dst
			d.U, d.V = d.U[:off+edges], d.V[:off+edges]
			*p = pieceIn{buf: b, n: n, us: d.U[off:], vs: d.V[off:], head: head, line: off - start, name: name}
			in.ring.next()
			head = false
		}
		if cerr != nil {
			return fmt.Errorf("fastio: %s: %w", name, cerr)
		}
	}
	return nil
}

// width is the goroutines workers asks for: <= 0 means GOMAXPROCS.
func width(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ringSlots is the slots of a ring of workers goroutines: one piece
// encoding or decoding and one waiting on the caller per worker, or one
// slot on the caller's goroutine alone.
func ringSlots(workers int) int {
	if workers <= 1 {
		return 1
	}
	return 2 * workers
}

// ring runs work(c) for pieces c = 0, 1, … in the order next puts them,
// on slots/2 goroutines, or on the caller's inside next when slots is 1.
// Piece c may use slot c mod slots: the caller waits for piece c − slots
// before it puts piece c.  wait waits for the oldest piece in flight, so
// the caller sees the pieces end in order.
type ring struct {
	work        func(c int)
	slots       int
	todo        chan int
	done        []chan struct{}
	wg          sync.WaitGroup
	put, waited int // pieces put, and waited for, so far
}

// newRing starts a ring of slots slots.
func newRing(slots int, work func(c int)) *ring {
	r := &ring{work: work, slots: slots}
	if slots == 1 {
		return r
	}
	// Each channel holds a send per slot, so no send blocks.
	r.todo, r.done = make(chan int, slots), make([]chan struct{}, slots)
	for i := range r.done {
		r.done[i] = make(chan struct{}, 1)
	}
	r.wg.Add(slots / 2)
	for range slots / 2 {
		//prlint:allow determinism -- a worker only fills or drains the slot of the piece it is handed, and the caller writes, reads and orders the pieces, waiting for each in piece order, so no byte or edge depends on scheduling
		go func() {
			defer r.wg.Done()
			for c := range r.todo {
				r.work(c)
				r.done[c%r.slots] <- struct{}{}
			}
		}()
	}
	return r
}

// next puts piece r.put.
func (r *ring) next() {
	c := r.put
	r.put++
	if r.todo == nil {
		r.work(c)
		return
	}
	r.todo <- c
}

// wait waits for piece r.waited to be done and returns its number.
func (r *ring) wait() int {
	c := r.waited
	r.waited++
	if r.done != nil {
		<-r.done[c%r.slots]
	}
	return c
}

// close waits for every piece put and stops the workers.
func (r *ring) close() {
	for r.waited < r.put {
		r.wait()
	}
	if r.todo != nil {
		close(r.todo)
		r.wg.Wait()
	}
}

// ---------------------------------------------------------------------------
// The codecs' pieces

// appendEdges makes room for the piece once, at a record width its
// largest digit count bounds, and formats it as TSVWriter does.
func (TSV) appendEdges(dst []byte, l *edge.List, lo, hi int, _ bool) []byte {
	us, vs := l.U[lo:hi], l.V[lo:hi]
	vs = vs[:len(us)]
	var or uint64 // no label has more digits than or
	for k, u := range us {
		or |= u | vs[k]
	}
	b, i := slices.Grow(dst, len(us)*(2*digitCount(or)+2)+maxRecord), len(dst)
	b = b[:cap(b)]
	for k, u := range us {
		i = putRecord(b, i, u, vs[k])
	}
	return b[:i]
}

// cut ends a piece after its last newline, or at the end of the stream,
// where a final record may lack one: every record is one line.
func (TSV) cut(b []byte, _, eof bool) (n, edges int, err error) {
	n = bytes.LastIndexByte(b, '\n') + 1
	edges = bytes.Count(b[:n], []byte{'\n'})
	if eof && n < len(b) {
		n, edges = len(b), edges+1
	}
	return n, edges, nil
}

// decode runs TSVReader's scanner over b where it lies, as the whole of
// its input.
func (TSV) decode(b []byte, us, vs []uint64, _ bool, line int) error {
	t := TSVReader{buf: b[:len(b)+1+wordSlack], end: len(b), line: line, err: io.EOF}
	t.buf[len(b)] = 0 // the end-of-data byte
	_, err := t.words(us, vs)
	return err
}

func (Binary) appendEdges(dst []byte, l *edge.List, lo, hi int, _ bool) []byte {
	dst = slices.Grow(dst, 16*(hi-lo))
	for i := lo; i < hi; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, l.U[i])
		dst = binary.LittleEndian.AppendUint64(dst, l.V[i])
	}
	return dst
}

func (Binary) cut(b []byte, _, eof bool) (n, edges int, err error) {
	n = len(b) &^ 15
	if eof && n < len(b) {
		err = fmt.Errorf("fastio: truncated binary edge record: %w", io.ErrUnexpectedEOF)
	}
	return n, n / 16, err
}

func (Binary) decode(b []byte, us, vs []uint64, _ bool, _ int) error {
	for i := range us {
		us[i], vs[i] = binary.LittleEndian.Uint64(b[16*i:]), binary.LittleEndian.Uint64(b[16*i+8:])
	}
	return nil
}

// packedHeaderRoom is the room Packed.appendEdges leaves for a block
// header: two uvarints below 2^32.
const packedHeaderRoom = 2 * binary.MaxVarintLen32

// appendEdges writes PackedWriter's blocks: the payload goes past room
// for its header, and moves down once the header is known.
func (Packed) appendEdges(dst []byte, l *edge.List, lo, hi int, head bool) []byte {
	blocks := (hi - lo + PackedBlockEdges - 1) / PackedBlockEdges
	dst = slices.Grow(dst, len(packedMagic)+blocks*packedHeaderRoom+(hi-lo)*packedMaxBytesPerEdge)
	if head {
		dst = append(dst, packedMagic...)
	}
	for ; lo < hi; lo += PackedBlockEdges {
		n := min(hi-lo, PackedBlockEdges)
		h := len(dst)
		payload := dst[h+packedHeaderRoom : h+packedHeaderRoom]
		var prev uint64
		for i := lo; i < lo+n; i++ {
			payload = binary.AppendVarint(payload, int64(l.U[i]-prev))
			payload = binary.AppendUvarint(payload, l.V[i])
			prev = l.U[i]
		}
		hdr := binary.AppendUvarint(dst[h:h], uint64(n))
		hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
		dst = append(dst[:h+len(hdr)], payload...)
	}
	return dst
}

// cut checks the magic and each block header as PackedReader does, with
// its errors, and ends a piece after its last whole block.
func (Packed) cut(b []byte, head, eof bool) (n, edges int, err error) {
	if head {
		switch {
		case len(b) < len(packedMagic) && (!eof || len(b) == 0):
			return 0, 0, nil
		case len(b) < len(packedMagic):
			return 0, 0, fmt.Errorf("fastio: packed: short magic: %w", io.ErrUnexpectedEOF)
		case string(b[:len(packedMagic)]) != packedMagic:
			return 0, 0, fmt.Errorf("fastio: packed: bad magic %q", b[:len(packedMagic)])
		}
		n = len(packedMagic)
	}
	var r bytes.Reader
	for {
		r.Reset(b[n:])
		count, err := binary.ReadUvarint(&r)
		if err == io.EOF {
			return n, edges, nil
		}
		var plen uint64
		if err == nil {
			plen, err = binary.ReadUvarint(&r)
		}
		if err != nil {
			if !eof && (err == io.EOF || err == io.ErrUnexpectedEOF) {
				return n, edges, nil // the header goes on in the next read
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return n, edges, fmt.Errorf("fastio: packed: block header: %w", err)
		}
		if err := packedHeaderErr(count, plen); err != nil {
			return n, edges, err
		}
		if uint64(r.Len()) < plen {
			if !eof {
				return n, edges, nil
			}
			return n, edges, fmt.Errorf("fastio: packed: truncated block payload: %w", io.ErrUnexpectedEOF)
		}
		n, edges = len(b)-r.Len()+int(plen), edges+int(count)
	}
}

// decode decodes the blocks of b, whose headers cut has checked.
func (Packed) decode(b []byte, us, vs []uint64, head bool, _ int) error {
	if head {
		b = b[len(packedMagic):]
	}
	e := 0
	for len(b) > 0 {
		count, k := binary.Uvarint(b)
		plen, k2 := binary.Uvarint(b[k:])
		payload := b[k+k2 : k+k2+int(plen)]
		b = b[k+k2+int(plen):]
		var u uint64
		off := 0
		for range count {
			var v uint64
			var err error
			if u, v, off, err = packedEdge(payload, off, u); err != nil {
				return err
			}
			us[e], vs[e] = u, v
			e++
		}
		if off != len(payload) {
			return packedTrailingErr(len(payload) - off)
		}
	}
	return nil
}

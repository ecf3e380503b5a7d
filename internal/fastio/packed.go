package fastio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/edge"
)

// The Packed codec is a block-structured varint + delta encoding that
// exploits the sortedness the pipeline produces: kernel 1's output and the
// external sorter's spill runs are sorted by start vertex, so consecutive
// u values are near each other and delta-encode to one or two bytes where
// the fixed-width Binary codec spends eight.
//
// On-disk layout (DESIGN.md §9 is the normative spec):
//
//	file    := magic block*
//	magic   := "PRPKD1\xF5\x0A" (8 bytes; \xF5 is outside UTF-8 text,
//	           \x0A trips naive line-oriented tooling early)
//	block   := uvarint(count) uvarint(payloadLen) payload
//	payload := count × ( varint(u - uPrev)  uvarint(v) )
//
// uPrev starts at 0 in every block and updates to the decoded u after each
// edge, so blocks decode independently.  The u delta is a zigzag varint of
// the wrapping two's-complement difference, which round-trips arbitrary
// (including unsorted) uint64 sequences; sortedness only makes it small.
// count is in [1, PackedBlockEdges] and payloadLen in
// [2·count, 20·count], so a decoder's allocations stay bounded no matter
// what bytes arrive — the property the fuzz target leans on.  A zero-byte
// file is a valid empty stream; a file holding only the magic likewise.
type Packed struct{}

// packedMagic is the 8-byte file signature Detect sniffs for.
const packedMagic = "PRPKD1\xF5\x0A"

// PackedBlockEdges is the maximum (and the writer's target) number of
// edges per block.  4096 edges keep block payloads well under 100 KiB
// while amortizing the two-varint header below 0.1%.
const PackedBlockEdges = 4096

// packedMaxBytesPerEdge bounds one encoded edge: two maximal varints.
const packedMaxBytesPerEdge = 2 * binary.MaxVarintLen64

// Name implements Codec.
func (Packed) Name() string { return "packed" }

// BytesPerEdge implements Codec.  The estimate assumes the sorted input
// the pipeline feeds this codec: u deltas are small (≈2 bytes zigzag)
// while v stays uniform and costs a full-width varint.  Block headers
// amortize to under 0.1% and are ignored.
func (Packed) BytesPerEdge(maxVertex uint64) float64 {
	if maxVertex > 0 {
		maxVertex--
	}
	return 2 + float64(uvarintLen(maxVertex))
}

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// NewWriter implements Codec.
func (Packed) NewWriter(w io.Writer) EdgeSink {
	return &PackedWriter{w: w, payload: make([]byte, 0, PackedBlockEdges*4)}
}

// NewReader implements Codec.
func (Packed) NewReader(r io.Reader) EdgeSource {
	return &PackedReader{r: bufio.NewReaderSize(r, DefaultBufSize)}
}

// PackedWriter encodes edges into Packed blocks.  Flush seals the current
// (possibly short) block; blocks shorter than PackedBlockEdges are legal,
// so interleaving Flush with writes costs compression, never correctness.
type PackedWriter struct {
	w          io.Writer
	wroteMagic bool
	n          int    // edges in the open block
	uprev      uint64 // last u written in the open block
	payload    []byte
	hdr        []byte
}

// WriteEdges implements EdgeSink.
func (p *PackedWriter) WriteEdges(l *edge.List, lo, hi int) error {
	us, vs := l.U, l.V
	for i := lo; i < hi; i++ {
		p.payload = binary.AppendVarint(p.payload, int64(us[i]-p.uprev))
		p.uprev = us[i]
		p.payload = binary.AppendUvarint(p.payload, vs[i])
		p.n++
		if p.n >= PackedBlockEdges {
			if err := p.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush implements EdgeSink.  It writes the magic if nothing has been
// written yet, so even an empty flushed stream is detectable on disk.
func (p *PackedWriter) Flush() error { return p.flushBlock() }

func (p *PackedWriter) flushBlock() error {
	if p.wroteMagic && p.n == 0 {
		return nil
	}
	p.hdr = p.hdr[:0]
	if !p.wroteMagic {
		p.hdr = append(p.hdr, packedMagic...)
		p.wroteMagic = true
	}
	if p.n > 0 {
		p.hdr = binary.AppendUvarint(p.hdr, uint64(p.n))
		p.hdr = binary.AppendUvarint(p.hdr, uint64(len(p.payload)))
	}
	if len(p.hdr) > 0 {
		if _, err := p.w.Write(p.hdr); err != nil {
			return err
		}
	}
	if len(p.payload) > 0 {
		if _, err := p.w.Write(p.payload); err != nil {
			return err
		}
	}
	p.n, p.uprev = 0, 0
	p.payload = p.payload[:0]
	return nil
}

// PackedReader decodes Packed blocks.
type PackedReader struct {
	r       *bufio.Reader
	started bool   // magic consumed
	payload []byte // current block payload, in r's buffer until the next block
	off     int    // decode offset into payload
	prev    uint64 // last decoded u in the current block
	rem     int    // edges remaining in the current block
}

// ReadEdges implements EdgeSource: whole blocks decode into l without
// per-edge interface dispatch.
func (p *PackedReader) ReadEdges(l *edge.List, max int) (int, error) {
	total := 0
	for total < max {
		if p.rem == 0 {
			if err := p.nextBlock(); err != nil {
				if err == io.EOF && total > 0 {
					return total, nil
				}
				return total, err
			}
		}
		n := p.rem
		if n > max-total {
			n = max - total
		}
		for k := 0; k < n; k++ {
			u, v, off, err := packedEdge(p.payload, p.off, p.prev)
			if err != nil {
				return total, err
			}
			p.off, p.prev = off, u
			p.rem--
			l.Append(u, v)
			total++
		}
		if p.rem == 0 && p.off != len(p.payload) {
			return total, packedTrailingErr(len(p.payload) - p.off)
		}
	}
	return total, nil
}

// packedEdge decodes the edge at payload[off:] of a block whose previous
// u is prev, returning it and the offset past it.
func packedEdge(payload []byte, off int, prev uint64) (u, v uint64, next int, err error) {
	delta, n := binary.Varint(payload[off:])
	if n <= 0 {
		return 0, 0, off, fmt.Errorf("fastio: packed: corrupt u-delta varint")
	}
	off += n
	u = prev + uint64(delta) // wrapping add, inverse of the writer's wrapping subtract
	v, n = binary.Uvarint(payload[off:])
	if n <= 0 {
		return 0, 0, off, fmt.Errorf("fastio: packed: corrupt v varint")
	}
	return u, v, off + n, nil
}

// packedTrailingErr is the error of a block payload with n bytes past its
// last edge.
func packedTrailingErr(n int) error {
	return fmt.Errorf("fastio: packed: %d trailing bytes in block payload", n)
}

// packedHeaderErr checks a block header's edge count and payload length.
func packedHeaderErr(count, plen uint64) error {
	if count == 0 || count > PackedBlockEdges {
		return fmt.Errorf("fastio: packed: block edge count %d outside [1, %d]", count, PackedBlockEdges)
	}
	if plen < 2*count || plen > packedMaxBytesPerEdge*count {
		return fmt.Errorf("fastio: packed: block payload length %d outside [%d, %d] for %d edges",
			plen, 2*count, packedMaxBytesPerEdge*count, count)
	}
	return nil
}

// nextBlock consumes the magic (first call) and the next block header and
// payload.  io.EOF means a clean end of stream; every other failure mode —
// short magic, wrong magic, header fields out of range, truncated payload —
// is a distinct error.
func (p *PackedReader) nextBlock() error {
	p.r.Discard(len(p.payload)) // the previous block's peeked payload: cannot fail
	p.payload = nil
	if !p.started {
		magic, err := p.r.Peek(len(packedMagic))
		if err == io.EOF && len(magic) == 0 {
			return io.EOF // zero-byte file: valid empty stream
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("fastio: packed: short magic: %w", err)
		}
		if string(magic) != packedMagic {
			return fmt.Errorf("fastio: packed: bad magic %q", magic)
		}
		p.r.Discard(len(packedMagic)) // peeked: cannot fail
		p.started = true
	}
	count, err := binary.ReadUvarint(p.r)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("fastio: packed: block header: %w", err)
	}
	plen, err := binary.ReadUvarint(p.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("fastio: packed: block header: %w", err)
	}
	if err := packedHeaderErr(count, plen); err != nil {
		return err
	}
	// plen ≤ packedMaxBytesPerEdge·PackedBlockEdges fits r's buffer, so the
	// payload decodes where it lies.
	payload, err := p.r.Peek(int(plen))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("fastio: packed: truncated block payload: %w", err)
	}
	p.payload = payload
	p.off, p.prev, p.rem = 0, 0, int(count)
	return nil
}

var _ Codec = Packed{}

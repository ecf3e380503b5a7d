package fastio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

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
// uPrev starts at 0 in every block, so blocks decode independently; the
// zigzag delta wraps, so unsorted u round-trip too.  count is in
// [1, PackedBlockEdges] and payloadLen in [2·count, 20·count], which bounds
// what any header can make a decoder hold.  A zero-byte file and a file of
// only the magic are valid empty streams.
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
	return 2 + float64((bits.Len64(maxVertex|1)+6)/7) // v's uvarint: 7 bits a byte
}

// NewWriter implements Codec.  Flush seals the open block, however short:
// blocks shorter than PackedBlockEdges are legal, so interleaving Flush
// with writes costs compression, never correctness.
func (Packed) NewWriter(w io.Writer) EdgeSink { return newBlockWriter(Packed{}, w) }

// NewReader implements Codec.
func (Packed) NewReader(r io.Reader) EdgeSource { return newBlockReader(Packed{}, r, decodeBlock) }

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

var _ Codec = Packed{}

// packedHeaderRoom is the room Packed.appendEdges leaves for a block
// header: two uvarints below 2^32.
const packedHeaderRoom = 2 * binary.MaxVarintLen32

// appendEdges writes a block per PackedBlockEdges edges, and a short one
// for the rest: each payload goes past room for its header, and moves down
// once the header is known.
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

// cut checks the magic and each block header, and ends a block of bytes
// after its last whole Packed block.  A header or payload the bytes end
// inside goes on in the next read, or is a truncation once eof is set.
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
	for n < len(b) {
		count, k, err := uvarint(b[n:])
		var plen uint64
		if err == nil {
			var k2 int
			plen, k2, err = uvarint(b[n+k:])
			k += k2
		}
		switch {
		case err == io.ErrUnexpectedEOF && !eof:
			return n, edges, nil // the header goes on in the next read
		case err != nil:
			return n, edges, fmt.Errorf("fastio: packed: block header: %w", err)
		}
		if err := packedHeaderErr(count, plen); err != nil {
			return n, edges, err
		}
		if uint64(len(b)-n-k) < plen {
			if !eof {
				return n, edges, nil
			}
			return n, edges, fmt.Errorf("fastio: packed: truncated block payload: %w", io.ErrUnexpectedEOF)
		}
		n, edges = n+k+int(plen), edges+int(count)
	}
	return n, edges, nil
}

// uvarint is binary.Uvarint with binary.ReadUvarint's errors and no
// reader to allocate: io.ErrUnexpectedEOF when b ends inside the varint.
func uvarint(b []byte) (uint64, int, error) {
	x, k := binary.Uvarint(b)
	switch {
	case k > 0:
		return x, k, nil
	case k == 0:
		return 0, 0, io.ErrUnexpectedEOF
	}
	_, err := binary.ReadUvarint(bytes.NewReader(b)) // the overflow, as ReadUvarint words it
	return 0, 0, err
}

// decode decodes the blocks of b, whose headers cut has checked.
func (Packed) decode(b []byte, us, vs []uint64, head bool, _ int) (int, error) {
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
		for range count {
			delta, n := binary.Varint(payload)
			if n <= 0 {
				return e, fmt.Errorf("fastio: packed: corrupt u-delta varint")
			}
			v, m := binary.Uvarint(payload[n:])
			if m <= 0 {
				return e, fmt.Errorf("fastio: packed: corrupt v varint")
			}
			u += uint64(delta) // wrapping add, inverse of the writer's wrapping subtract
			us[e], vs[e] = u, v
			payload = payload[n+m:]
			e++
		}
		if len(payload) > 0 {
			return e, fmt.Errorf("fastio: packed: %d trailing bytes in block payload", len(payload))
		}
	}
	return e, nil
}

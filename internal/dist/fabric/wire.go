// Package fabric is the socket transport of the distributed runtime's
// third execution mode (dist.ExecSocket): a versioned little-endian wire
// format for the pooled rank-fabric messages, and a metered Link that
// frames them over a net.Conn with per-frame deadlines.  DESIGN.md §13
// is the normative statement of the format and the handshake.
//
// The wire format exists to make the paper's communication model
// falsifiable against bytes on a real wire: every data-plane payload
// encodes at exactly the wire-cost formulas the collectives meter
// (8 B/float64, 8 B/key, 16 B/edge), so a Link's write-side DataBytes
// equal the sender's CommStats contribution identically.  Frame headers
// and segment boundaries are accounted separately (OverheadBytes), and
// handshake/job/error traffic separately again (ControlBytes) — the
// model prices the data plane, and the split keeps the comparison exact
// rather than approximate.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "PRFB"
//	4       2     wire version (Version)
//	6       2     frame type (FrameType)
//	8       4     source rank
//	12      4     destination rank
//	16      8     payload length in bytes
//	24      —     payload
//
// Decoding is bounds-checked end to end: a hostile or truncated stream
// is rejected with an error before any length-proportional allocation
// (FuzzEnvelopeDecode drives this with arbitrary bytes).
package fabric

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/edge"
)

// Magic opens every frame; a stream that does not start with it is not a
// fabric peer (most likely a stray connection or a corrupted stream).
const Magic = "PRFB"

// Version is the wire-format version this package speaks.  Peers
// exchange it in every frame header; a mismatch anywhere tears the
// connection down with a VersionError (there is no downgrade path — both
// ends of a fabric ship in the same binary in every supported
// deployment).  Version 2 added the block frames and made a worker serve
// jobs until the coordinator hangs up; a version-1 worker would exit
// after one.  Version 3 sends rank 0's result vector home as a raw
// FrameVec ahead of its outcome; a version-2 coordinator would reject
// the frame.
const Version = 3

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 24

// DefaultMaxFrameBytes bounds a frame's payload length unless the link
// configures its own limit: 1 GiB, far above any payload the rank
// schedule ships at supported scales, far below a length that could be
// used to allocate a host to death.
const DefaultMaxFrameBytes = 1 << 30

// FrameType identifies a frame's payload encoding and plane.
type FrameType uint16

const (
	// Data plane — the payloads CommStats meters.

	// FrameVec is a []float64 payload (rank-vector replicas, in-degree
	// partials, scalar reductions): 8 bytes per element.
	FrameVec FrameType = 1
	// FrameKeys is a []uint64 payload (sort samples and splitters):
	// 8 bytes per element.
	FrameKeys FrameType = 2
	// FrameEdges is an edge-list payload, interleaved (u, v) pairs:
	// 16 bytes per edge.
	FrameEdges FrameType = 3
	// FrameSegments is a segmented edge-list payload (the out-of-core
	// sort's run segments): a u32 segment count, then per segment a u32
	// edge count followed by its interleaved edges.  Edge bytes are
	// data; the segment framing is overhead, exactly as the metered
	// exchange charges no bytes for segment boundaries.
	FrameSegments FrameType = 4

	// Control plane — unmetered by CommStats (DESIGN.md §5: the model
	// prices the data plane; error agreement, handshake and job
	// distribution are free in the closed form).

	// FrameString is an agreeError control string between ranks.
	FrameString FrameType = 5
	// FrameJoin is a worker's hello to the coordinator: fabric id plus
	// the worker's mesh listen address.
	FrameJoin FrameType = 6
	// FrameWelcome is the coordinator's reply: assigned rank, p, and
	// every worker's mesh address.
	FrameWelcome FrameType = 7
	// FrameMeshHello opens a worker-to-worker mesh connection: fabric
	// id, dialing rank, accepting rank.
	FrameMeshHello FrameType = 8
	// FrameReady signals the worker's mesh is fully connected.
	FrameReady FrameType = 9
	// FrameJob carries the gob-encoded job spec to a worker.
	FrameJob FrameType = 10
	// FrameOutcome carries a worker's gob-encoded result back.
	FrameOutcome FrameType = 11
	// FrameCkptChunk relays one rank's encoded checkpoint chunk to the
	// coordinator's storage.
	FrameCkptChunk FrameType = 12
	// FrameCkptCommit asks the coordinator to write an epoch commit.
	FrameCkptCommit FrameType = 13
	// FrameCkptAck answers a chunk or commit relay with its error
	// string (empty for success).
	FrameCkptAck FrameType = 14
	// FrameProgress streams rank 0's per-iteration progress count.
	FrameProgress FrameType = 15
	// FrameReject aborts a handshake with a reason string.
	FrameReject FrameType = 16
	// FrameBlock ships one rank's resident kernel-3 operand — its CSR
	// row block as raw arrays — after a job frame that announces it.
	// Set-up, not a collective: it travels on the control link and
	// counts as control bytes.
	FrameBlock FrameType = 17
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameVec:
		return "vec"
	case FrameKeys:
		return "keys"
	case FrameEdges:
		return "edges"
	case FrameSegments:
		return "segments"
	case FrameString:
		return "string"
	case FrameJoin:
		return "join"
	case FrameWelcome:
		return "welcome"
	case FrameMeshHello:
		return "mesh-hello"
	case FrameReady:
		return "ready"
	case FrameJob:
		return "job"
	case FrameOutcome:
		return "outcome"
	case FrameCkptChunk:
		return "ckpt-chunk"
	case FrameCkptCommit:
		return "ckpt-commit"
	case FrameCkptAck:
		return "ckpt-ack"
	case FrameProgress:
		return "progress"
	case FrameReject:
		return "reject"
	case FrameBlock:
		return "block"
	default:
		return fmt.Sprintf("frame?(%d)", uint16(t))
	}
}

// valid reports whether t is a defined frame type.
func (t FrameType) valid() bool { return t >= FrameVec && t <= FrameBlock }

// VersionError is a frame from a peer speaking another wire version: the
// two ends were built from different sources.
type VersionError struct {
	// Peer is the version the frame's header carries.
	Peer uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("fabric: peer speaks wire version %d, this build speaks %d: coordinator and workers must be built from the same source", e.Peer, Version)
}

// Header is one decoded frame header.
type Header struct {
	Type FrameType
	// Src and Dst are the frame's rank endpoints.  Control frames
	// between a worker and the coordinator carry the worker's rank in
	// both fields.
	Src, Dst int
	// Len is the payload length in bytes.
	Len uint64
}

// PutHeader encodes h into b, which must be at least HeaderSize long.
func PutHeader(b []byte, h Header) {
	copy(b[0:4], Magic)
	binary.LittleEndian.PutUint16(b[4:6], Version)
	binary.LittleEndian.PutUint16(b[6:8], uint16(h.Type))
	binary.LittleEndian.PutUint32(b[8:12], uint32(h.Src))
	binary.LittleEndian.PutUint32(b[12:16], uint32(h.Dst))
	binary.LittleEndian.PutUint64(b[16:24], h.Len)
}

// ParseHeader decodes and validates a frame header against maxLen (<= 0
// selects DefaultMaxFrameBytes).  It rejects a wrong magic, an
// unsupported version, an unknown frame type and an oversized payload
// length — before the caller allocates anything for the payload.
func ParseHeader(b []byte, maxLen int64) (Header, error) {
	if maxLen <= 0 {
		maxLen = DefaultMaxFrameBytes
	}
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("fabric: short frame header: %d bytes, want %d", len(b), HeaderSize)
	}
	if string(b[0:4]) != Magic {
		return Header{}, fmt.Errorf("fabric: bad magic %q, want %q", b[0:4], Magic)
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != Version {
		return Header{}, &VersionError{Peer: v}
	}
	h := Header{
		Type: FrameType(binary.LittleEndian.Uint16(b[6:8])),
		Src:  int(binary.LittleEndian.Uint32(b[8:12])),
		Dst:  int(binary.LittleEndian.Uint32(b[12:16])),
		Len:  binary.LittleEndian.Uint64(b[16:24]),
	}
	if !h.Type.valid() {
		return Header{}, fmt.Errorf("fabric: unknown frame type %d", uint16(h.Type))
	}
	if h.Len > uint64(maxLen) {
		return Header{}, fmt.Errorf("fabric: frame payload %d bytes exceeds limit %d", h.Len, maxLen)
	}
	return h, nil
}

// AppendVec appends the FrameVec encoding of v: 8 bytes per element.
func AppendVec(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// DecodeVec decodes a FrameVec payload into dst, which must have length
// len(payload)/8 (the caller sizes it from the header).
func DecodeVec(payload []byte, dst []float64) error {
	if len(payload)%8 != 0 {
		return fmt.Errorf("fabric: vec payload %d bytes, not a multiple of 8", len(payload))
	}
	if len(dst) != len(payload)/8 {
		return fmt.Errorf("fabric: vec payload holds %d elements, caller sized %d", len(payload)/8, len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return nil
}

// AppendKeys appends the FrameKeys encoding of k: 8 bytes per element.
func AppendKeys(b []byte, k []uint64) []byte {
	for _, x := range k {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// DecodeKeys decodes a FrameKeys payload into dst, which must have
// length len(payload)/8.
func DecodeKeys(payload []byte, dst []uint64) error {
	if len(payload)%8 != 0 {
		return fmt.Errorf("fabric: keys payload %d bytes, not a multiple of 8", len(payload))
	}
	if len(dst) != len(payload)/8 {
		return fmt.Errorf("fabric: keys payload holds %d elements, caller sized %d", len(payload)/8, len(dst))
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return nil
}

// AppendBlock appends the FrameBlock encoding of a CSR row block: u64
// row and entry counts, then the rows+1 row pointers (i64, rebased to
// start at 0), the column indices (u32) and the values (f64), raw.
func AppendBlock(b []byte, rowPtr []int64, col []uint32, val []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(rowPtr)-1))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(col)))
	for _, x := range rowPtr {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	for _, x := range col {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return AppendVec(b, val)
}

// DecodeBlock decodes a FrameBlock payload.  The counts must account for
// the payload's length exactly before anything is allocated from them,
// and the row pointers must describe the entries: start at 0, never
// decrease, end at the entry count.
func DecodeBlock(payload []byte) (rowPtr []int64, col []uint32, val []float64, err error) {
	if len(payload) < 24 {
		return nil, nil, nil, fmt.Errorf("fabric: block payload %d bytes, want >= 24", len(payload))
	}
	rows, nnz := binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:])
	rest := uint64(len(payload) - 24)
	if rows > rest/8 || nnz > rest/12 || 8*rows+12*nnz != rest {
		return nil, nil, nil, fmt.Errorf("fabric: block of %d rows and %d entries does not fill its %d-byte payload", rows, nnz, len(payload))
	}
	rowPtr, col, val = make([]int64, rows+1), make([]uint32, nnz), make([]float64, nnz)
	payload = payload[16:]
	for i := range rowPtr {
		rowPtr[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
		if i == 0 && rowPtr[0] != 0 || i > 0 && rowPtr[i] < rowPtr[i-1] {
			return nil, nil, nil, fmt.Errorf("fabric: block row pointers out of order at row %d", i)
		}
	}
	if rowPtr[rows] != int64(nnz) {
		return nil, nil, nil, fmt.Errorf("fabric: block row pointers end at %d, want the entry count %d", rowPtr[rows], nnz)
	}
	payload = payload[8*len(rowPtr):]
	for i := range col {
		col[i] = binary.LittleEndian.Uint32(payload[4*i:])
	}
	return rowPtr, col, val, DecodeVec(payload[4*nnz:], val)
}

// AppendEdges appends the FrameEdges encoding of l: interleaved (u, v)
// pairs, 16 bytes per edge.
func AppendEdges(b []byte, l *edge.List) []byte {
	for i := 0; i < l.Len(); i++ {
		b = binary.LittleEndian.AppendUint64(b, l.U[i])
		b = binary.LittleEndian.AppendUint64(b, l.V[i])
	}
	return b
}

// DecodeEdges decodes a FrameEdges payload, appending to l.
func DecodeEdges(payload []byte, l *edge.List) error {
	if len(payload)%16 != 0 {
		return fmt.Errorf("fabric: edges payload %d bytes, not a multiple of 16", len(payload))
	}
	for off := 0; off < len(payload); off += 16 {
		l.Append(binary.LittleEndian.Uint64(payload[off:]), binary.LittleEndian.Uint64(payload[off+8:]))
	}
	return nil
}

// AppendSegments appends the FrameSegments encoding of segs: a u32
// segment count, then per segment a u32 edge count and its edges.
func AppendSegments(b []byte, segs []*edge.List) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(segs)))
	for _, seg := range segs {
		b = binary.LittleEndian.AppendUint32(b, uint32(seg.Len()))
		b = AppendEdges(b, seg)
	}
	return b
}

// DecodeSegments decodes a FrameSegments payload.  Every count is
// validated against the remaining payload before any allocation sized
// from it, so a fabricated count cannot over-allocate.
func DecodeSegments(payload []byte) ([]*edge.List, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("fabric: segments payload %d bytes, want >= 4", len(payload))
	}
	nseg := binary.LittleEndian.Uint32(payload)
	payload = payload[4:]
	// Each segment costs at least its 4-byte count; reject a count the
	// remaining bytes cannot possibly hold before allocating the slice.
	if uint64(nseg)*4 > uint64(len(payload)) {
		return nil, fmt.Errorf("fabric: segment count %d exceeds payload", nseg)
	}
	segs := make([]*edge.List, 0, nseg)
	for s := uint32(0); s < nseg; s++ {
		if len(payload) < 4 {
			return nil, fmt.Errorf("fabric: segment %d: truncated count", s)
		}
		m := binary.LittleEndian.Uint32(payload)
		payload = payload[4:]
		need := uint64(m) * 16
		if need > uint64(len(payload)) {
			return nil, fmt.Errorf("fabric: segment %d: %d edges exceed payload", s, m)
		}
		seg := edge.NewList(int(m))
		if err := DecodeEdges(payload[:need], seg); err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		payload = payload[need:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("fabric: %d trailing bytes after last segment", len(payload))
	}
	return segs, nil
}

// SegmentsOverhead is the non-edge byte count of a FrameSegments payload
// holding nseg segments: the framing the metered exchange does not
// charge (DESIGN.md §5).
func SegmentsOverhead(nseg int) uint64 { return 4 + 4*uint64(nseg) }

// appendU32 and takeU32 are the handshake payloads' integer encoding.
func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func takeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("fabric: truncated u32")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// appendString appends a u32-length-prefixed string (the handshake
// payloads' string encoding).
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// takeString consumes one length-prefixed string, bounds-checked.
func takeString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("fabric: truncated string length")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return "", nil, fmt.Errorf("fabric: string length %d exceeds payload", n)
	}
	return string(b[:n]), b[n:], nil
}

package fabric

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/edge"
)

// FuzzEnvelopeDecode drives the whole frame decode path — header parse
// plus the per-type payload decoder — with arbitrary bytes, the way a
// fabric reader consumes a socket stream.  The decoders must never
// panic, never allocate proportionally to a fabricated length or count
// field, and must round-trip anything they accept bit-for-bit.
func FuzzEnvelopeDecode(f *testing.F) {
	frame := func(t FrameType, payload []byte) []byte {
		b := make([]byte, HeaderSize)
		PutHeader(b, Header{Type: t, Src: 0, Dst: 1, Len: uint64(len(payload))})
		return append(b, payload...)
	}
	l := edge.NewList(2)
	l.Append(3, 4)
	l.Append(5, 6)
	f.Add(frame(FrameVec, AppendVec(nil, []float64{1, -2.5, math.Inf(-1)})))
	f.Add(frame(FrameKeys, AppendKeys(nil, []uint64{7, 1 << 62})))
	f.Add(frame(FrameEdges, AppendEdges(nil, l)))
	f.Add(frame(FrameSegments, AppendSegments(nil, []*edge.List{l, edge.NewList(0)})))
	f.Add(frame(FrameString, []byte("peer rank failed")))
	f.Add(frame(FrameJoin, AppendJoin(nil, Join{FabricID: "f", MeshNetwork: "unix", MeshAddr: "/x"})))
	f.Add(frame(FrameWelcome, AppendWelcome(nil, Welcome{Rank: 0, Procs: 2, MeshNetwork: "unix", MeshAddrs: []string{"", "/y"}})))
	f.Add(frame(FrameMeshHello, AppendMeshHello(nil, MeshHello{FabricID: "f", Src: 1, Dst: 0})))
	f.Add(frame(FrameBlock, AppendBlock(nil, []int64{0, 2, 2, 3}, []uint32{0, 7, 1 << 31}, []float64{0.5, 0.5, 1})))
	f.Add(frame(FrameBlock, AppendBlock(nil, []int64{0}, nil, nil)))
	// Fabricated block counts: nothing behind them, and a product that
	// would wrap 64 bits.
	f.Add(frame(FrameBlock, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<40), 1<<40)))
	f.Add(frame(FrameBlock, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<61), 0)))
	// Wrong magic, truncated header, empty input.
	f.Add([]byte("XXFB"))
	f.Add([]byte("PRFB"))
	f.Add([]byte{})
	// Oversized length prefix with no payload behind it.
	huge := make([]byte, HeaderSize)
	PutHeader(huge, Header{Type: FrameVec, Len: 1 << 40})
	f.Add(huge)
	// Fabricated segment count.
	f.Add(frame(FrameSegments, binary.LittleEndian.AppendUint32(nil, 1<<31)))
	// A result vector going home (a normalized rank vector with a -0 and
	// a subnormal), the same payload one byte short, and a frame from a
	// version-2 build.
	rank := make([]float64, 64)
	for i := range rank {
		rank[i] = 1 / float64(len(rank))
	}
	rank[3], rank[7] = math.Copysign(0, -1), math.SmallestNonzeroFloat64
	f.Add(frame(FrameVec, AppendVec(nil, rank)))
	f.Add(frame(FrameVec, AppendVec(nil, rank)[:8*len(rank)-1]))
	old := frame(FrameVec, AppendVec(nil, rank[:2]))
	binary.LittleEndian.PutUint16(old[4:6], 2)
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHeader(data, 1<<20)
		if err != nil {
			var ve *VersionError
			if len(data) >= HeaderSize && string(data[:4]) == Magic &&
				binary.LittleEndian.Uint16(data[4:6]) != Version && !errors.As(err, &ve) {
				t.Fatalf("another build's header refused without a VersionError: %v", err)
			}
			return
		}
		if uint64(len(data))-HeaderSize < h.Len {
			return // truncated payload: the stream reader would block, not decode
		}
		payload := data[HeaderSize : HeaderSize+int(h.Len)]
		switch h.Type {
		case FrameVec:
			if h.Len%8 != 0 {
				if err := DecodeVec(payload, make([]float64, h.Len/8)); err == nil {
					t.Fatal("DecodeVec accepted a ragged payload")
				}
				return
			}
			v := make([]float64, h.Len/8)
			if err := DecodeVec(payload, v); err != nil {
				t.Fatalf("DecodeVec rejected an aligned payload: %v", err)
			}
			back := AppendVec(nil, v)
			if string(back) != string(payload) {
				t.Fatal("vec round trip drifted")
			}
		case FrameBlock:
			rowPtr, col, val, err := DecodeBlock(payload)
			if err != nil {
				return
			}
			if len(col) != len(val) || rowPtr[0] != 0 || rowPtr[len(rowPtr)-1] != int64(len(col)) {
				t.Fatalf("DecodeBlock accepted an inconsistent block: %d pointers, %d columns, %d values", len(rowPtr), len(col), len(val))
			}
			if string(AppendBlock(nil, rowPtr, col, val)) != string(payload) {
				t.Fatal("block round trip drifted")
			}
		case FrameKeys:
			if h.Len%8 != 0 {
				return
			}
			k := make([]uint64, h.Len/8)
			if err := DecodeKeys(payload, k); err != nil {
				t.Fatalf("DecodeKeys rejected an aligned payload: %v", err)
			}
			if string(AppendKeys(nil, k)) != string(payload) {
				t.Fatal("keys round trip drifted")
			}
		case FrameEdges:
			el := edge.NewList(0)
			if err := DecodeEdges(payload, el); err != nil {
				if h.Len%16 == 0 {
					t.Fatalf("DecodeEdges rejected an aligned payload: %v", err)
				}
				return
			}
			if string(AppendEdges(nil, el)) != string(payload) {
				t.Fatal("edges round trip drifted")
			}
		case FrameSegments:
			segs, err := DecodeSegments(payload)
			if err != nil {
				return
			}
			if string(AppendSegments(nil, segs)) != string(payload) {
				t.Fatal("segments round trip drifted")
			}
		case FrameJoin:
			j, err := ParseJoin(payload)
			if err != nil {
				return
			}
			if string(AppendJoin(nil, j)) != string(payload) {
				t.Fatal("join round trip drifted")
			}
		case FrameWelcome:
			w, err := ParseWelcome(payload)
			if err != nil {
				return
			}
			if string(AppendWelcome(nil, w)) != string(payload) {
				t.Fatal("welcome round trip drifted")
			}
		case FrameMeshHello:
			mh, err := ParseMeshHello(payload)
			if err != nil {
				return
			}
			if string(AppendMeshHello(nil, mh)) != string(payload) {
				t.Fatal("mesh hello round trip drifted")
			}
		}
	})
}

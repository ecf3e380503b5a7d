package fabric

// Handshake payloads: the fixed-layout little-endian messages that bring
// a worker into a fabric (DESIGN.md §13), in control.go's field encoding.
// Version negotiation must fail cleanly against a peer from a different
// build, so everything up to and including the Welcome is decodable with
// nothing but this package.
//
// Sequence, with w = worker, c = coordinator, r = assigned rank:
//
//	w→c  FrameJoin     {fabric id, mesh network, mesh address}
//	c→w  FrameWelcome  {rank, p, io timeout, all p mesh addresses}
//	                   (or FrameReject)
//	w→w  FrameMeshHello {fabric id, src, dst}  — rank r dials every
//	     s < r and sends the hello; r accepts p-1-r conns from s > r
//	     and validates theirs.  One conn per unordered rank pair.
//	w→c  FrameReady    — mesh complete
//	c→w  FrameJob      — one rank's job; a run begins.  The worker
//	     answers with FrameOutcome and waits for the next job; the
//	     coordinator closing the link ends the session.
//
// Every frame carries the wire version in its header, so a version
// mismatch fails at the first frame either side reads.

import (
	"fmt"
	"time"
)

// maxProcs bounds the rank count a handshake message may claim, keeping
// a corrupt Welcome from sizing an absurd allocation.
const maxProcs = 1 << 16

// Join is a worker's hello to the coordinator.
type Join struct {
	// FabricID must equal the coordinator's; it keeps a stray worker
	// (or a worker from a concurrent fabric on a recycled address) out.
	FabricID string
	// MeshNetwork and MeshAddr name the worker's own mesh listener,
	// which its higher-ranked peers will dial.
	MeshNetwork string
	MeshAddr    string
}

// AppendJoin appends the FrameJoin payload encoding of j.
func AppendJoin(b []byte, j Join) []byte {
	b = AppendString(b, j.FabricID)
	b = AppendString(b, j.MeshNetwork)
	return AppendString(b, j.MeshAddr)
}

// ParseJoin decodes a FrameJoin payload.
func ParseJoin(payload []byte) (Join, error) {
	r := NewReader(payload)
	j := Join{FabricID: r.Str(), MeshNetwork: r.Str(), MeshAddr: r.Str()}
	if err := r.Close(); err != nil {
		return Join{}, fmt.Errorf("fabric: join: %w", err)
	}
	return j, nil
}

// Welcome is the coordinator's admission reply: the worker's assigned
// rank, the fabric's rank count and per-frame deadline, and every
// worker's mesh address (in rank order; a rank's own entry included).
type Welcome struct {
	Rank  int
	Procs int
	// IOTimeout is the fabric's per-frame deadline, which the worker
	// applies to its control link and its mesh links (NewLink's rule: 0
	// selects DefaultIOTimeout, negative disables deadlines).
	IOTimeout time.Duration
	// MeshNetwork is the address family every mesh address speaks.
	MeshNetwork string
	MeshAddrs   []string
}

// AppendWelcome appends the FrameWelcome payload encoding of w.
func AppendWelcome(b []byte, w Welcome) []byte {
	b = AppendInt(b, w.Rank)
	b = AppendInt(b, w.Procs)
	b = AppendU64(b, uint64(w.IOTimeout))
	b = AppendString(b, w.MeshNetwork)
	for _, a := range w.MeshAddrs {
		b = AppendString(b, a)
	}
	return b
}

// ParseWelcome decodes and validates a FrameWelcome payload.
func ParseWelcome(payload []byte) (Welcome, error) {
	r := NewReader(payload)
	w := Welcome{Rank: r.Int(), Procs: r.Int()}
	if r.Err() == nil && (w.Procs < 1 || w.Procs > maxProcs) {
		r.Failf("p = %d out of range [1, %d]", w.Procs, maxProcs)
	}
	if r.Err() == nil && (w.Rank < 0 || w.Rank >= w.Procs) {
		r.Failf("rank %d of %d", w.Rank, w.Procs)
	}
	w.IOTimeout, w.MeshNetwork = time.Duration(r.U64()), r.Str()
	if r.Err() == nil {
		w.MeshAddrs = make([]string, w.Procs)
		for i := range w.MeshAddrs {
			w.MeshAddrs[i] = r.Str()
		}
	}
	if err := r.Close(); err != nil {
		return Welcome{}, fmt.Errorf("fabric: welcome: %w", err)
	}
	return w, nil
}

// MeshHello opens one worker-to-worker mesh connection.
type MeshHello struct {
	FabricID string
	// Src is the dialing (higher) rank, Dst the accepting (lower) one.
	Src, Dst int
}

// AppendMeshHello appends the FrameMeshHello payload encoding of h.
func AppendMeshHello(b []byte, h MeshHello) []byte {
	b = AppendString(b, h.FabricID)
	b = AppendInt(b, h.Src)
	return AppendInt(b, h.Dst)
}

// ParseMeshHello decodes a FrameMeshHello payload.
func ParseMeshHello(payload []byte) (MeshHello, error) {
	r := NewReader(payload)
	h := MeshHello{FabricID: r.Str(), Src: r.Int(), Dst: r.Int()}
	if r.Err() == nil && (h.Src < 0 || h.Src > maxProcs || h.Dst < 0 || h.Dst > maxProcs) {
		r.Failf("ranks %d→%d out of range", h.Src, h.Dst)
	}
	if err := r.Close(); err != nil {
		return MeshHello{}, fmt.Errorf("fabric: mesh hello: %w", err)
	}
	return h, nil
}

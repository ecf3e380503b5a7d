package fabric

// Handshake payloads: the fixed-layout little-endian messages that bring
// a worker into a fabric (DESIGN.md §13).  They are deliberately not gob
// — version negotiation must fail cleanly against a peer from a
// different build, so everything up to and including the Welcome is
// decodable with nothing but this file and wire.go.  (Job and outcome
// payloads, exchanged only after both ends have proven the same wire
// version, are gob.)
//
// Sequence, with w = worker, c = coordinator, r = assigned rank:
//
//	w→c  FrameJoin     {fabric id, mesh network, mesh address}
//	c→w  FrameWelcome  {rank, p, all p mesh addresses}   (or FrameReject)
//	w→w  FrameMeshHello {fabric id, src, dst}  — rank r dials every
//	     s < r and sends the hello; r accepts p-1-r conns from s > r
//	     and validates theirs.  One conn per unordered rank pair.
//	w→c  FrameReady    — mesh complete
//	c→w  FrameJob      — gob job spec; a run begins.  When the spec
//	     announces an operand, a FrameBlock follows with the rank's row
//	     block.  The worker answers with FrameOutcome and waits for the
//	     next job; the coordinator closing the link ends the session.
//
// Every frame carries the wire version in its header, so a version
// mismatch fails at the first frame either side reads.

import "fmt"

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
	b = appendString(b, j.FabricID)
	b = appendString(b, j.MeshNetwork)
	return appendString(b, j.MeshAddr)
}

// ParseJoin decodes a FrameJoin payload.
func ParseJoin(payload []byte) (Join, error) {
	var j Join
	var err error
	if j.FabricID, payload, err = takeString(payload); err != nil {
		return Join{}, fmt.Errorf("fabric: join: %w", err)
	}
	if j.MeshNetwork, payload, err = takeString(payload); err != nil {
		return Join{}, fmt.Errorf("fabric: join: %w", err)
	}
	if j.MeshAddr, payload, err = takeString(payload); err != nil {
		return Join{}, fmt.Errorf("fabric: join: %w", err)
	}
	if len(payload) != 0 {
		return Join{}, fmt.Errorf("fabric: join: %d trailing bytes", len(payload))
	}
	return j, nil
}

// Welcome is the coordinator's admission reply: the worker's assigned
// rank, the fabric's rank count, and every worker's mesh address (in
// rank order; a rank's own entry included).
type Welcome struct {
	Rank  int
	Procs int
	// MeshNetwork is the address family every mesh address speaks.
	MeshNetwork string
	MeshAddrs   []string
}

// AppendWelcome appends the FrameWelcome payload encoding of w.
func AppendWelcome(b []byte, w Welcome) []byte {
	b = appendU32(b, uint32(w.Rank))
	b = appendU32(b, uint32(w.Procs))
	b = appendString(b, w.MeshNetwork)
	for _, a := range w.MeshAddrs {
		b = appendString(b, a)
	}
	return b
}

// ParseWelcome decodes and validates a FrameWelcome payload.
func ParseWelcome(payload []byte) (Welcome, error) {
	var w Welcome
	var err error
	var rank, procs uint32
	if rank, payload, err = takeU32(payload); err != nil {
		return Welcome{}, fmt.Errorf("fabric: welcome: %w", err)
	}
	if procs, payload, err = takeU32(payload); err != nil {
		return Welcome{}, fmt.Errorf("fabric: welcome: %w", err)
	}
	if procs < 1 || procs > maxProcs {
		return Welcome{}, fmt.Errorf("fabric: welcome: p = %d out of range [1, %d]", procs, maxProcs)
	}
	if rank >= procs {
		return Welcome{}, fmt.Errorf("fabric: welcome: rank %d of %d", rank, procs)
	}
	w.Rank, w.Procs = int(rank), int(procs)
	if w.MeshNetwork, payload, err = takeString(payload); err != nil {
		return Welcome{}, fmt.Errorf("fabric: welcome: %w", err)
	}
	w.MeshAddrs = make([]string, w.Procs)
	for i := range w.MeshAddrs {
		if w.MeshAddrs[i], payload, err = takeString(payload); err != nil {
			return Welcome{}, fmt.Errorf("fabric: welcome: address %d: %w", i, err)
		}
	}
	if len(payload) != 0 {
		return Welcome{}, fmt.Errorf("fabric: welcome: %d trailing bytes", len(payload))
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
	b = appendString(b, h.FabricID)
	b = appendU32(b, uint32(h.Src))
	return appendU32(b, uint32(h.Dst))
}

// ParseMeshHello decodes a FrameMeshHello payload.
func ParseMeshHello(payload []byte) (MeshHello, error) {
	var h MeshHello
	var err error
	if h.FabricID, payload, err = takeString(payload); err != nil {
		return MeshHello{}, fmt.Errorf("fabric: mesh hello: %w", err)
	}
	var src, dst uint32
	if src, payload, err = takeU32(payload); err != nil {
		return MeshHello{}, fmt.Errorf("fabric: mesh hello: %w", err)
	}
	if dst, payload, err = takeU32(payload); err != nil {
		return MeshHello{}, fmt.Errorf("fabric: mesh hello: %w", err)
	}
	if src > maxProcs || dst > maxProcs {
		return MeshHello{}, fmt.Errorf("fabric: mesh hello: ranks %d→%d out of range", src, dst)
	}
	if len(payload) != 0 {
		return MeshHello{}, fmt.Errorf("fabric: mesh hello: %d trailing bytes", len(payload))
	}
	h.Src, h.Dst = int(src), int(dst)
	return h, nil
}

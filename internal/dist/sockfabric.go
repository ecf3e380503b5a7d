package dist

// sockFabric is the socket implementation of the fabric seam: one
// worker process's view of the full rank mesh.  Each unordered rank
// pair {r, s} shares one connection (dialed by the higher rank during
// the handshake, socket.go/sockworker.go), with both directions
// multiplexed over it; a dedicated reader goroutine per peer decodes
// inbound frames into pooled envelopes and per-source inbox channels of
// capacity linkBuf — so the fabric presents exactly the per-link FIFO,
// buffered, exactly-once contract of the channel fabric, with the OS
// socket buffers only adding slack beyond linkBuf (which, per the
// argument at linkBuf, cannot introduce a deadlock).
//
// Envelope pooling is preserved on both ends: a sender serializes a
// pooled envelope onto the wire and immediately releases it back to its
// own pool; a reader decodes into an envelope from its own pool and
// hands ownership to the receiving rank through the inbox, exactly as a
// channel-fabric receiver takes ownership off the link (DESIGN.md §7).
//
// Byte accounting stays sender-side and unchanged: rankComm meters
// CommStats exactly as over channels, and independently every frame
// write counts measured wire bytes into the shared fabric.Stats — the
// typed payload encodings cost exactly the wire-cost formulas, so the
// measured data-plane bytes equal the metered CommStats identically
// (socket_test.go pins the equality).
//
// Teardown: abort closes the done plane and every mesh connection,
// which unblocks blocked reads and writes with errors; link operations
// then panic fabricDown exactly like the channel fabric's.  A peer
// closing its connections between frames is NOT an abort: the reader
// exits silently (every message the peer sent was delivered in order
// before the EOF), and a genuinely premature death is surfaced through
// the coordinator's control plane instead.  Any other way a reader can
// stop — a frame stalled past the link's deadline, a reset — IS: a mesh
// that outlives one job must not lose a reader unnoticed, or the next
// job would block in recv until torn down.

import (
	"errors"
	"io"
	"sync"

	"repro/internal/dist/fabric"
	"repro/internal/edge"
)

type sockFabric struct {
	p, self int
	// peers[s] is the mesh link to rank s (nil at self, and everywhere
	// when p == 1).
	peers []*fabric.Link
	// inbox[s] carries decoded messages from rank s, capacity linkBuf.
	inbox []chan any

	done      chan struct{}
	abortOnce sync.Once
	readers   sync.WaitGroup

	envPool
}

// newSockFabric wraps an established mesh and starts the per-peer
// readers.  peers must have length p with nil at self.
func newSockFabric(self, p int, peers []*fabric.Link) *sockFabric {
	f := &sockFabric{
		p: p, self: self, peers: peers,
		inbox: make([]chan any, p),
		done:  make(chan struct{}),
	}
	for s := range f.inbox {
		f.inbox[s] = make(chan any, linkBuf)
	}
	for s, ln := range peers {
		if ln == nil {
			continue
		}
		f.readers.Add(1)
		//prlint:allow determinism -- per-peer socket reader: feeds only the metered fabric, joins in shutdown before the worker reports
		go f.readLoop(s, ln)
	}
	return f
}

func (f *sockFabric) procs() int { return f.p }

// send serializes m onto dst's mesh link.  Pooled envelopes are
// released back to the local pool the moment their payload is on the
// wire — the ownership handoff of the §7 contract, with the wire in the
// middle.  A write failure means the mesh is down: abort and unwind.
func (f *sockFabric) send(src, dst int, m any) {
	ln := f.peers[dst]
	var err error
	switch v := m.(type) {
	case *vecMsg:
		err = ln.WriteVec(src, dst, v.buf)
		f.putVec(v)
	case *keyMsg:
		err = ln.WriteKeys(src, dst, v.buf)
		f.putKeys(v)
	case *edge.List:
		err = ln.WriteEdges(src, dst, v)
	case []*edge.List:
		err = ln.WriteSegments(src, dst, v)
	case string:
		err = ln.WriteControl(fabric.FrameString, src, dst, []byte(v))
	default:
		panic("dist: sockFabric.send of unknown message type")
	}
	if err != nil {
		f.abort()
		panic(fabricDown{})
	}
}

// recv takes the next decoded message from src's inbox, or unwinds if
// the fabric comes down first.
func (f *sockFabric) recv(src, dst int) any {
	select {
	case m := <-f.inbox[src]:
		return m
	case <-f.done:
		panic(fabricDown{})
	}
}

// abort trips the teardown plane: the done channel unwinds blocked
// inbox receives, and closing the mesh connections unblocks any reader
// or writer stuck inside the kernel.  Idempotent, safe from any
// goroutine.
func (f *sockFabric) abort() {
	f.abortOnce.Do(func() {
		close(f.done)
		for _, ln := range f.peers {
			if ln != nil {
				ln.Close()
			}
		}
	})
}

// shutdown closes the mesh after the rank's schedule completed and
// joins the readers.  Safe after abort (Close is idempotent).
func (f *sockFabric) shutdown() {
	for _, ln := range f.peers {
		if ln != nil {
			ln.Close()
		}
	}
	f.readers.Wait()
}

// release returns a pooled envelope that could not be delivered.
func (f *sockFabric) release(m any) {
	switch v := m.(type) {
	case *vecMsg:
		f.putVec(v)
	case *keyMsg:
		f.putKeys(v)
	}
}

// readLoop is rank src's inbound decoder: frame by frame into pooled
// envelopes, pushed to the src inbox.  A clean close from the peer ends
// the loop silently; any other read error, like a protocol violation
// (misrouted frame, undecodable payload), brings the fabric down —
// abort is idempotent, so the errors abort itself induces are harmless.
func (f *sockFabric) readLoop(src int, ln *fabric.Link) {
	defer f.readers.Done()
	for {
		h, payload, err := ln.ReadFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				f.abort()
			}
			return
		}
		if h.Src != src || h.Dst != f.self {
			f.abort()
			return
		}
		var m any
		switch h.Type {
		case fabric.FrameVec:
			v := f.getVec(int(h.Len / 8))
			if err := fabric.DecodeVec(payload, v.buf); err != nil {
				f.putVec(v)
				f.abort()
				return
			}
			m = v
		case fabric.FrameKeys:
			k := f.getKeys(int(h.Len / 8))
			if err := fabric.DecodeKeys(payload, k.buf); err != nil {
				f.putKeys(k)
				f.abort()
				return
			}
			m = k
		case fabric.FrameEdges:
			l := edge.NewList(int(h.Len / 16))
			if err := fabric.DecodeEdges(payload, l); err != nil {
				f.abort()
				return
			}
			m = l
		case fabric.FrameSegments:
			segs, err := fabric.DecodeSegments(payload)
			if err != nil {
				f.abort()
				return
			}
			m = segs
		case fabric.FrameString:
			m = string(payload)
		default:
			f.abort()
			return
		}
		select {
		case f.inbox[src] <- m:
		case <-f.done:
			f.release(m)
			return
		}
	}
}

package fabric

// Link frames the wire format of wire.go over one net.Conn.  It is the
// ONLY place in the repository that reads or writes a net.Conn — the
// prlint meteredcomm analyzer enforces the confinement — so the byte
// accounting below is complete by construction: every byte that crosses
// a fabric socket is counted exactly once, on the writing side, into
// one of the three Stats planes.

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edge"
)

// DefaultIOTimeout is the per-frame read/write deadline applied when the
// caller does not choose one: generous against scheduler stalls on a
// loaded CI host, small against a genuinely wedged peer.  It bounds a
// frame in flight, never the wait for one: a link may idle between
// frames (a resident session between jobs) for as long as it likes.
const DefaultIOTimeout = 5 * time.Minute

// sockBufBytes is the kernel send and receive buffer asked for on every
// fabric connection (the kernel clamps it to its own maximum).  A vector
// frame of up to 2^17 floats then leaves in one write: the sender does
// not stall at the default ~200 KiB until the receiving process has been
// scheduled to drain it, which on a host with as many cores as ranks was
// several sleep/wake round trips per all-reduce.
const sockBufBytes = 1 << 20

// Counters is a point-in-time snapshot of a Stats set.
type Counters struct {
	// DataBytes are payload bytes of the metered data plane — vector,
	// key and edge payloads, at exactly the wire-cost formulas CommStats
	// meters (8 B/float64, 8 B/key, 16 B/edge).
	DataBytes uint64
	// ControlBytes are payload bytes of the unmetered control plane:
	// error-agreement strings, handshake, job and checkpoint relay.
	ControlBytes uint64
	// OverheadBytes are the framing: headers plus segment boundaries.
	OverheadBytes uint64
	// Frames counts frames written.
	Frames uint64
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.DataBytes += o.DataBytes
	c.ControlBytes += o.ControlBytes
	c.OverheadBytes += o.OverheadBytes
	c.Frames += o.Frames
}

// Sub returns c minus the earlier snapshot o: one job's share of a
// resident link's cumulative counters.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		DataBytes:     c.DataBytes - o.DataBytes,
		ControlBytes:  c.ControlBytes - o.ControlBytes,
		OverheadBytes: c.OverheadBytes - o.OverheadBytes,
		Frames:        c.Frames - o.Frames,
	}
}

// Stats is a shared, concurrency-safe byte-accounting sink.  Every Link
// of one logical plane (a worker's mesh links, say) points at one Stats,
// so the plane's totals accumulate across links.  Writes count at the
// sender only; reading a frame counts nothing, which is what keeps a
// conn's bytes from being double-counted by its two ends.
type Stats struct {
	data     atomic.Uint64
	control  atomic.Uint64
	overhead atomic.Uint64
	frames   atomic.Uint64
}

// Snapshot returns the current totals.
func (s *Stats) Snapshot() Counters {
	return Counters{
		DataBytes:     s.data.Load(),
		ControlBytes:  s.control.Load(),
		OverheadBytes: s.overhead.Load(),
		Frames:        s.frames.Load(),
	}
}

// Link is one framed, metered, deadline-guarded fabric connection.
//
// Concurrency contract: any number of goroutines may write (a mutex
// serializes frames), but at most one goroutine reads — each fabric
// connection has a single dedicated reader, and ReadFrame's returned
// payload is only valid until its next call.
type Link struct {
	conn    net.Conn
	br      *bufio.Reader
	timeout time.Duration
	maxLen  int64
	st      *Stats

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte // frame scratch (header + payload), under wmu

	rhdr [HeaderSize]byte
	rbuf []byte // payload scratch, single-reader

	closeOnce sync.Once
	closeErr  error
}

// NewLink wraps an established connection.  timeout is the per-frame
// read/write deadline: 0 selects DefaultIOTimeout, negative disables
// deadlines.  st receives the write-side byte accounting (required).
func NewLink(conn net.Conn, timeout time.Duration, st *Stats) *Link {
	if timeout == 0 {
		timeout = DefaultIOTimeout
	}
	if c, ok := conn.(interface {
		SetReadBuffer(bytes int) error
		SetWriteBuffer(bytes int) error
	}); ok { // unix and tcp conns; best effort, a refusal only costs time
		_ = c.SetReadBuffer(sockBufBytes)
		_ = c.SetWriteBuffer(sockBufBytes)
	}
	return &Link{
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		timeout: timeout,
		maxLen:  DefaultMaxFrameBytes,
		st:      st,
	}
}

// Dial connects to a fabric listener and wraps the connection.
func Dial(network, addr string, timeout time.Duration, st *Stats) (*Link, error) {
	d := net.Dialer{}
	if timeout > 0 {
		d.Timeout = timeout
	}
	conn, err := d.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewLink(conn, timeout, st), nil
}

// Listen opens a fabric listener ("unix" or "tcp").
func Listen(network, addr string) (net.Listener, error) {
	return net.Listen(network, addr)
}

// Close tears the connection down; idempotent and safe concurrently with
// blocked reads and writes, which it unblocks with an error.
func (l *Link) Close() error {
	l.closeOnce.Do(func() { l.closeErr = l.conn.Close() })
	return l.closeErr
}

// writeFrame frames and flushes one payload already encoded in l.wbuf
// after the header gap, under wmu.  data and control partition the
// payload's accounting; the remainder of the frame is overhead.
func (l *Link) writeFrame(h Header, data, control uint64) error {
	PutHeader(l.wbuf[:HeaderSize], h)
	if l.timeout > 0 {
		if err := l.conn.SetWriteDeadline(time.Now().Add(l.timeout)); err != nil {
			return err
		}
	}
	if _, err := l.bw.Write(l.wbuf); err != nil {
		return err
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	l.st.data.Add(data)
	l.st.control.Add(control)
	l.st.overhead.Add(uint64(len(l.wbuf)) - data - control)
	l.st.frames.Add(1)
	return nil
}

// begin resets the frame scratch to an empty payload after the header gap.
func (l *Link) begin() { l.wbuf = append(l.wbuf[:0], make([]byte, HeaderSize)...) }

// WriteVec sends a FrameVec: data plane, 8 bytes per element.
func (l *Link) WriteVec(src, dst int, v []float64) error { return l.writeVec(src, dst, v, true) }

// WriteControlVec sends a FrameVec on the control plane: a worker's
// result vector going home, which no collective meters.
func (l *Link) WriteControlVec(src, dst int, v []float64) error {
	return l.writeVec(src, dst, v, false)
}

// writeVec frames v, its payload counted as data or as control.
func (l *Link) writeVec(src, dst int, v []float64, data bool) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.begin()
	l.wbuf = AppendVec(l.wbuf, v)
	n := uint64(len(l.wbuf) - HeaderSize)
	h := Header{Type: FrameVec, Src: src, Dst: dst, Len: n}
	if data {
		return l.writeFrame(h, n, 0)
	}
	return l.writeFrame(h, 0, n)
}

// WriteKeys sends a FrameKeys: data plane, 8 bytes per element.
func (l *Link) WriteKeys(src, dst int, k []uint64) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.begin()
	l.wbuf = AppendKeys(l.wbuf, k)
	n := uint64(len(l.wbuf) - HeaderSize)
	return l.writeFrame(Header{Type: FrameKeys, Src: src, Dst: dst, Len: n}, n, 0)
}

// WriteEdges sends a FrameEdges: data plane, 16 bytes per edge.
func (l *Link) WriteEdges(src, dst int, el *edge.List) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.begin()
	l.wbuf = AppendEdges(l.wbuf, el)
	n := uint64(len(l.wbuf) - HeaderSize)
	return l.writeFrame(Header{Type: FrameEdges, Src: src, Dst: dst, Len: n}, n, 0)
}

// WriteSegments sends a FrameSegments: the edges are data plane (16 bytes
// each), the segment boundaries overhead — mirroring the metered
// exchange, which charges nothing for segment framing.
func (l *Link) WriteSegments(src, dst int, segs []*edge.List) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.begin()
	l.wbuf = AppendSegments(l.wbuf, segs)
	n := uint64(len(l.wbuf) - HeaderSize)
	return l.writeFrame(Header{Type: FrameSegments, Src: src, Dst: dst, Len: n},
		n-SegmentsOverhead(len(segs)), 0)
}

// WriteControl sends a control-plane frame of type t with an opaque
// payload: every payload byte counts as control traffic.
func (l *Link) WriteControl(t FrameType, src, dst int, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.begin()
	l.wbuf = append(l.wbuf, payload...)
	n := uint64(len(payload))
	return l.writeFrame(Header{Type: t, Src: src, Dst: dst, Len: n}, 0, n)
}

// WriteBlock sends a FrameBlock: one rank's resident operand, control
// plane.  The block-sized scratch is dropped afterwards so a long-lived
// link does not pin it.
func (l *Link) WriteBlock(dst int, rowPtr []int64, col []uint32, val []float64) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	defer func() { l.wbuf = nil }()
	l.begin()
	l.wbuf = AppendBlock(l.wbuf, rowPtr, col, val)
	n := uint64(len(l.wbuf) - HeaderSize)
	return l.writeFrame(Header{Type: FrameBlock, Src: dst, Dst: dst, Len: n}, 0, n)
}

// ReadFrame reads, validates and returns the next frame.  The payload
// slice is the Link's scratch buffer: it is valid only until the next
// ReadFrame, and the caller must decode or copy before then.  The
// deadline is armed only once the frame's first byte is in — idle is
// not stalled — and a peer that closed between frames yields io.EOF.
func (l *Link) ReadFrame() (Header, []byte, error) {
	if l.timeout > 0 {
		if l.br.Buffered() == 0 {
			if err := l.conn.SetReadDeadline(time.Time{}); err != nil {
				return Header{}, nil, err
			}
			if _, err := l.br.Peek(1); err != nil {
				return Header{}, nil, err
			}
		}
		if err := l.conn.SetReadDeadline(time.Now().Add(l.timeout)); err != nil {
			return Header{}, nil, err
		}
	}
	if _, err := io.ReadFull(l.br, l.rhdr[:]); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(l.rhdr[:], l.maxLen)
	if err != nil {
		return Header{}, nil, err
	}
	if uint64(cap(l.rbuf)) < h.Len {
		l.rbuf = make([]byte, h.Len)
	}
	l.rbuf = l.rbuf[:h.Len]
	if _, err := io.ReadFull(l.br, l.rbuf); err != nil {
		return Header{}, nil, err
	}
	return h, l.rbuf, nil
}

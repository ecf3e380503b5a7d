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
	wbuf []byte // frame scratch (header, then a data payload), under wmu

	rhdr [HeaderSize]byte
	rbuf []byte // payload scratch, single-reader

	closeOnce sync.Once
	closeErr  error
}

// NewLink wraps an established connection.  timeout is the per-frame
// read/write deadline: 0 selects DefaultIOTimeout, negative disables
// deadlines.  st receives the write-side byte accounting (required).
func NewLink(conn net.Conn, timeout time.Duration, st *Stats) *Link {
	if c, ok := conn.(interface {
		SetReadBuffer(bytes int) error
		SetWriteBuffer(bytes int) error
	}); ok { // unix and tcp conns; best effort, a refusal only costs time
		_ = c.SetReadBuffer(sockBufBytes)
		_ = c.SetWriteBuffer(sockBufBytes)
	}
	l := &Link{
		conn:   conn,
		br:     bufio.NewReader(conn),
		bw:     bufio.NewWriter(conn),
		maxLen: DefaultMaxFrameBytes,
		st:     st,
	}
	l.SetTimeout(timeout)
	return l
}

// SetTimeout replaces the link's per-frame deadline, by NewLink's rule.
// It is not synchronized: call it before the link is shared — a worker
// does, once the welcome names the fabric's deadline.
func (l *Link) SetTimeout(timeout time.Duration) {
	if timeout == 0 {
		timeout = DefaultIOTimeout
	}
	l.timeout = timeout
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

// send writes parts — one frame — and flushes them, under wmu.  data and
// control partition the frame's payload accounting; the remainder of the
// frame is overhead.
func (l *Link) send(data, control uint64, parts ...[]byte) error {
	if l.timeout > 0 {
		if err := l.conn.SetWriteDeadline(time.Now().Add(l.timeout)); err != nil {
			return err
		}
	}
	size := 0
	for _, p := range parts {
		if _, err := l.bw.Write(p); err != nil {
			return err
		}
		size += len(p)
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	l.st.data.Add(data)
	l.st.control.Add(control)
	l.st.overhead.Add(uint64(size) - data - control)
	l.st.frames.Add(1)
	return nil
}

// frame resets the frame scratch to an empty payload after the header
// gap: a data frame goes out as one contiguous write.
func (l *Link) frame() []byte { return append(l.wbuf[:0], make([]byte, HeaderSize)...) }

// sendData frames the data payload l.wbuf holds after its header gap.
func (l *Link) sendData(t FrameType, src, dst int, overhead uint64) error {
	n := uint64(len(l.wbuf) - HeaderSize)
	PutHeader(l.wbuf[:HeaderSize], Header{Type: t, Src: src, Dst: dst, Len: n})
	return l.send(n-overhead, 0, l.wbuf)
}

// WriteVec sends a FrameVec: data plane, 8 bytes per element.
func (l *Link) WriteVec(src, dst int, v []float64) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.wbuf = AppendVec(l.frame(), v)
	return l.sendData(FrameVec, src, dst, 0)
}

// WriteKeys sends a FrameKeys: data plane, 8 bytes per element.
func (l *Link) WriteKeys(src, dst int, k []uint64) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.wbuf = AppendKeys(l.frame(), k)
	return l.sendData(FrameKeys, src, dst, 0)
}

// WriteEdges sends a FrameEdges: data plane, 16 bytes per edge.
func (l *Link) WriteEdges(src, dst int, el *edge.List) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.wbuf = AppendEdges(l.frame(), el)
	return l.sendData(FrameEdges, src, dst, 0)
}

// WriteSegments sends a FrameSegments: the edges are data plane (16 bytes
// each), the segment boundaries overhead — mirroring the metered
// exchange, which charges nothing for segment framing.
func (l *Link) WriteSegments(src, dst int, segs []*edge.List) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.wbuf = AppendSegments(l.frame(), segs)
	return l.sendData(FrameSegments, src, dst, SegmentsOverhead(len(segs)))
}

// WriteControl sends a control-plane frame of type t: every payload byte
// counts as control traffic.  The payload is written as it is, not
// copied, so a job-sized payload pins no scratch on a long-lived link.
func (l *Link) WriteControl(t FrameType, src, dst int, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	n := uint64(len(payload))
	l.wbuf = l.frame()
	PutHeader(l.wbuf, Header{Type: t, Src: src, Dst: dst, Len: n})
	return l.send(0, n, l.wbuf, payload)
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

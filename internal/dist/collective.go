package dist

// The in-process fabric: typed point-to-point channels between p rank
// goroutines, and the collective layer every execution mode's ranks speak
// through.  DESIGN.md §5 is the normative statement of the contract
// implemented here.
//
// Message-passing contract (summary of DESIGN.md §5):
//
//   - Every (src, dst) rank pair has a dedicated buffered channel, so the
//     fabric delivers messages per-link FIFO, reliably, exactly once.
//     There is no global ordering between links.
//   - Collectives are bulk-synchronous and rooted at rank 0: a reduction
//     receives contributions in ascending rank order and combines them in
//     that order, which pins the floating-point association to the
//     rank-ordered sum for every transport and every interleaving — the
//     source of the bit-for-bit equality between the execution modes.
//   - Every rank executes the same schedule of collectives in the same
//     program order; sends within a collective precede receives.  Link
//     buffering (linkBuf) covers the bounded number of sends a rank can
//     issue before its next synchronizing receive, so the schedule cannot
//     deadlock.
//   - Payload slices are copied at the sender (or ownership is handed
//     over, for the edge exchange whose outboxes the sender never touches
//     again); ranks share no mutable state through messages.
//   - Float and key payloads travel in pooled envelopes (vecMsg/keyMsg)
//     recycled through the fabric's free lists, so the steady-state
//     kernel-3 collectives allocate nothing.  Ownership hands off at the
//     link: the sender must not touch an envelope after sending, and the
//     receiver owns it from the moment it is taken off the link and must
//     release it back to the pool once the payload is consumed
//     (DESIGN.md §7 amends the §5 contract with these rules).
//   - Byte accounting is sender-side: each rank meters the payload bytes
//     it puts on the wire with the wire-cost formulas of dist.go, and the
//     driver sums the per-rank records.  Measured bytes therefore equal
//     PredictedCommBytes identically, in every mode.

import (
	"fmt"
	"sync"

	"repro/internal/edge"
)

// linkBuf is the per-link channel capacity.  Two sends is the most any
// rank issues on one link before a synchronizing receive (the kernel-2
// edge outbox followed by the matrix-mass contribution); the slack above
// that only loosens the lockstep, it is not needed for liveness.  The
// socket fabric's per-peer inboxes use the same capacity, and the OS
// socket buffers behind them only add slack — which, per the same
// argument, cannot introduce a deadlock.
const linkBuf = 4

// rankFabric is the transport seam: the message plane one rankComm
// speaks through.  chanFabric (below) implements it over in-process channels;
// sockFabric (sockfabric.go) implements it over real socket links
// between OS processes.  Every implementation must provide per-link
// FIFO, exactly-once delivery, effective per-link buffering of at least
// linkBuf messages, envelope pooling, and a teardown plane whose trip
// makes every blocked or subsequent link operation panic fabricDown —
// the contract DESIGN.md §5/§8 state and the collectives below assume.
type rankFabric interface {
	// procs returns the fabric's rank count p.
	procs() int
	// send delivers m on the (src, dst) link, or panics fabricDown if
	// the fabric comes down first.  Envelope ownership transfers with
	// the message (DESIGN.md §7).
	send(src, dst int, m any)
	// recv takes the next message on the (src, dst) link, or panics
	// fabricDown if the fabric comes down first.
	recv(src, dst int) any
	// abort trips the teardown plane; idempotent, safe from any
	// goroutine.
	abort()
	// The pooled-envelope plane (DESIGN.md §7): getVec/getKeys take an
	// envelope from the fabric's free lists, putVec/putKeys release one.
	getVec(n int) *vecMsg
	putVec(m *vecMsg)
	getKeys(n int) *keyMsg
	putKeys(m *keyMsg)
}

// envPool is the shared envelope free-list implementation embedded by
// every fabric: a plain mutex-protected list — rather than a sync.Pool —
// keeps the steady-state allocation count deterministically zero,
// because the garbage collector cannot empty it between iterations.
type envPool struct {
	mu       sync.Mutex
	freeVecs []*vecMsg
	freeKeys []*keyMsg
}

// chanFabric is the in-process message plane of one run: p² dedicated
// links plus the shared envelope pools and the teardown plane.
type chanFabric struct {
	p     int
	links []chan any // links[src*p+dst]

	// done is the teardown plane: closed (once, by abort) when the run
	// must come down — a rank failed, or the run's context was cancelled.
	// Every link operation selects on it, so a rank blocked mid-collective
	// on a peer that will never arrive unwinds instead of leaking; its
	// goroutine exits through the fabricDown panic that spawnRanks
	// recovers.  In a healthy run the channel is never closed and the
	// extra select arm never fires.
	done      chan struct{}
	abortOnce sync.Once

	envPool
}

// abort trips the teardown plane.  Idempotent and safe from any
// goroutine; every subsequent (and every currently blocked) link
// operation panics fabricDown.
func (f *chanFabric) abort() { f.abortOnce.Do(func() { close(f.done) }) }

// fabricDown is the sentinel a link operation panics with after abort;
// spawnRanks' per-rank recover converts it into errRunAborted.  Any other
// panic value is a genuine bug and is re-raised.
type fabricDown struct{}

// vecMsg is a pooled float64 payload envelope: rank-vector replicas,
// in-degree partials and (at length 1) the scalar reductions.
type vecMsg struct{ buf []float64 }

// keyMsg is a pooled uint64 payload envelope: the sort's samples and
// splitters.
type keyMsg struct{ buf []uint64 }

// newChanFabric returns a fabric of p ranks.
func newChanFabric(p int) *chanFabric {
	f := &chanFabric{p: p, links: make([]chan any, p*p), done: make(chan struct{})}
	for i := range f.links {
		f.links[i] = make(chan any, linkBuf)
	}
	return f
}

func (f *chanFabric) procs() int { return f.p }

// send delivers m to dst's inbound link from src, or unwinds if the
// fabric comes down first (the select adds no allocation to the hot path).
func (f *chanFabric) send(src, dst int, m any) {
	select {
	case f.links[src*f.p+dst] <- m:
	case <-f.done:
		panic(fabricDown{})
	}
}

// recv takes the next message on the (src, dst) link, or unwinds if the
// fabric comes down first.
func (f *chanFabric) recv(src, dst int) any {
	select {
	case m := <-f.links[src*f.p+dst]:
		return m
	case <-f.done:
		panic(fabricDown{})
	}
}

// getVec takes a float envelope of length n from the pool (allocating
// only when the pool is dry — in steady state it never is).
func (pl *envPool) getVec(n int) *vecMsg {
	pl.mu.Lock()
	var m *vecMsg
	if last := len(pl.freeVecs) - 1; last >= 0 {
		m = pl.freeVecs[last]
		pl.freeVecs[last] = nil
		pl.freeVecs = pl.freeVecs[:last]
	}
	pl.mu.Unlock()
	if m == nil {
		m = &vecMsg{}
	}
	if cap(m.buf) < n {
		m.buf = make([]float64, n)
	}
	m.buf = m.buf[:n]
	return m
}

// putVec releases a float envelope back to the pool.  The caller must not
// touch it afterwards.
func (pl *envPool) putVec(m *vecMsg) {
	pl.mu.Lock()
	pl.freeVecs = append(pl.freeVecs, m)
	pl.mu.Unlock()
}

// getKeys and putKeys are the key-envelope counterparts.
func (pl *envPool) getKeys(n int) *keyMsg {
	pl.mu.Lock()
	var m *keyMsg
	if last := len(pl.freeKeys) - 1; last >= 0 {
		m = pl.freeKeys[last]
		pl.freeKeys[last] = nil
		pl.freeKeys = pl.freeKeys[:last]
	}
	pl.mu.Unlock()
	if m == nil {
		m = &keyMsg{}
	}
	if cap(m.buf) < n {
		m.buf = make([]uint64, n)
	}
	m.buf = m.buf[:n]
	return m
}

func (pl *envPool) putKeys(m *keyMsg) {
	pl.mu.Lock()
	pl.freeKeys = append(pl.freeKeys, m)
	pl.mu.Unlock()
}

// newRankComm returns rank r's handle on a fabric.
func newRankComm(f rankFabric, r int) *rankComm { return &rankComm{f: f, rank: r} }

// rankComm is one rank's view of the fabric: its identity, its send
// endpoints, and its private communication record (summed by the driver
// after the ranks join, so no counter is shared between goroutines).
// The fabric behind it may be the channel plane or the socket plane —
// the collectives below are transport-agnostic, which is what makes the
// three execution modes' CommStats equal by construction.
type rankComm struct {
	f    rankFabric
	rank int
	st   CommStats
}

func (c *rankComm) procs() int { return c.f.procs() }

// send delivers m to dst's inbound link from this rank, or unwinds if
// the fabric comes down first.
func (c *rankComm) send(dst int, m any) {
	c.f.send(c.rank, dst, m)
}

// recv takes the next message on the link from src, or unwinds if the
// fabric comes down first.
func (c *rankComm) recv(src int) any {
	return c.f.recv(src, c.rank)
}

// recvVec takes the next message from src, which the schedule guarantees
// is a pooled float envelope; a mismatch is a protocol bug.  Ownership
// transfers to the receiver, which must release the envelope with putVec
// once the payload is consumed.
func (c *rankComm) recvVec(src int) *vecMsg {
	v, ok := c.recv(src).(*vecMsg)
	if !ok {
		panic(fmt.Sprintf("dist: rank %d expected float payload from rank %d", c.rank, src))
	}
	return v
}

// recvKeyMsg is recvVec for the pooled key envelope.
func (c *rankComm) recvKeyMsg(src int) *keyMsg {
	v, ok := c.recv(src).(*keyMsg)
	if !ok {
		panic(fmt.Sprintf("dist: rank %d expected key payload from rank %d", c.rank, src))
	}
	return v
}

// sendVecCopy ships a private copy of vec to dst in a pooled envelope —
// the sender-copies rule of the §5 contract without the per-send
// allocation it used to cost.
func (c *rankComm) sendVecCopy(dst int, vec []float64) {
	m := c.f.getVec(len(vec))
	copy(m.buf, vec)
	c.send(dst, m)
}

// sendScalar ships one float64 in a length-1 pooled envelope (boxing a
// bare float64 into the link's interface type would allocate per send).
func (c *rankComm) sendScalar(dst int, v float64) {
	m := c.f.getVec(1)
	m.buf[0] = v
	c.send(dst, m)
}

func (c *rankComm) recvEdges(src int) *edge.List {
	v, ok := c.recv(src).(*edge.List)
	if !ok {
		panic(fmt.Sprintf("dist: rank %d expected *edge.List from rank %d", c.rank, src))
	}
	return v
}

func (c *rankComm) recvSegments(src int) []*edge.List {
	v, ok := c.recv(src).([]*edge.List)
	if !ok {
		panic(fmt.Sprintf("dist: rank %d expected []*edge.List from rank %d", c.rank, src))
	}
	return v
}

func (c *rankComm) recvString(src int) string {
	v, ok := c.recv(src).(string)
	if !ok {
		panic(fmt.Sprintf("dist: rank %d expected string from rank %d", c.rank, src))
	}
	return v
}

// allReduceSum leaves the rank-ordered global sum of the ranks' partial
// vectors in vec on every rank: non-roots send their partial to rank 0,
// the root accumulates the contributions in ascending rank order (its own
// partial first — the association TestDistRankGolden pins), then
// redistributes the result.  Wire volume is 2·8·len·(p-1), charged half
// to the gathering senders and half to the root's redistribution.
// allReduceSum is the kernel-3 steady-state hot path, so every payload
// travels in a pooled envelope: the senders copy into envelopes, the root
// folds each contribution and immediately releases it, and every receiver
// copies out and releases — zero heap allocations per call once the pool
// is warm.
func (c *rankComm) allReduceSum(vec []float64) {
	p := c.procs()
	if p == 1 {
		return
	}
	if c.rank == 0 {
		c.st.AllReduceCalls++
		for src := 1; src < p; src++ {
			m := c.recvVec(src)
			for i, v := range m.buf {
				vec[i] += v
			}
			c.f.putVec(m)
		}
		for dst := 1; dst < p; dst++ {
			c.sendVecCopy(dst, vec)
			c.st.AllReduceBytes += floatWireBytes * uint64(len(vec))
		}
	} else {
		c.sendVecCopy(0, vec)
		c.st.AllReduceBytes += floatWireBytes * uint64(len(vec))
		m := c.recvVec(0)
		copy(vec, m.buf)
		c.f.putVec(m)
	}
}

// allReduceScalar is allReduceSum for a single float64 contribution,
// carried in a length-1 pooled envelope.
func (c *rankComm) allReduceScalar(v float64) float64 {
	p := c.procs()
	if p == 1 {
		return v
	}
	if c.rank == 0 {
		c.st.AllReduceCalls++
		for src := 1; src < p; src++ {
			m := c.recvVec(src)
			v += m.buf[0]
			c.f.putVec(m)
		}
		for dst := 1; dst < p; dst++ {
			c.sendScalar(dst, v)
			c.st.AllReduceBytes += floatWireBytes
		}
		return v
	}
	c.sendScalar(0, v)
	c.st.AllReduceBytes += floatWireBytes
	m := c.recvVec(0)
	v = m.buf[0]
	c.f.putVec(m)
	return v
}

// broadcastFloats ships rank 0's vector to every rank and returns each
// rank's private replica (the root's own argument on rank 0).  Non-roots
// pass nil.  The replica is a fresh slice — the caller keeps it for the
// whole run, so the envelope is copied out and released (a once-per-run
// allocation, not a steady-state one).
func (c *rankComm) broadcastFloats(vec []float64) []float64 {
	p := c.procs()
	if p == 1 {
		return vec
	}
	if c.rank == 0 {
		c.st.BroadcastCalls++
		for dst := 1; dst < p; dst++ {
			c.sendVecCopy(dst, vec)
			c.st.BroadcastBytes += floatWireBytes * uint64(len(vec))
		}
		return vec
	}
	m := c.recvVec(0)
	out := append([]float64(nil), m.buf...)
	c.f.putVec(m)
	return out
}

// broadcastKeys ships rank 0's key slice (the sort's splitters) to every
// rank; non-roots pass nil and receive a fresh copy (the splitters are
// held for the whole sort, so the envelope is released immediately).
func (c *rankComm) broadcastKeys(keys []uint64) []uint64 {
	p := c.procs()
	if p == 1 {
		return keys
	}
	if c.rank == 0 {
		c.st.BroadcastCalls++
		for dst := 1; dst < p; dst++ {
			m := c.f.getKeys(len(keys))
			copy(m.buf, keys)
			c.send(dst, m)
			c.st.BroadcastBytes += keyWireBytes * uint64(len(keys))
		}
		return keys
	}
	m := c.recvKeyMsg(0)
	out := append([]uint64(nil), m.buf...)
	c.f.putKeys(m)
	return out
}

// gatherKeys collects every rank's key slice at rank 0 in ascending rank
// order (the sort's sample gather); non-roots get nil back.  The
// personalized sends are metered as all-to-all traffic.
func (c *rankComm) gatherKeys(keys []uint64) [][]uint64 {
	p := c.procs()
	if p == 1 {
		return [][]uint64{keys}
	}
	if c.rank == 0 {
		all := make([][]uint64, p)
		all[0] = keys
		for src := 1; src < p; src++ {
			m := c.recvKeyMsg(src)
			all[src] = append([]uint64(nil), m.buf...)
			c.f.putKeys(m)
		}
		return all
	}
	m := c.f.getKeys(len(keys))
	copy(m.buf, keys)
	c.send(0, m)
	c.st.AllToAllBytes += keyWireBytes * uint64(len(keys))
	return nil
}

// agreeError is the control-plane barrier of the out-of-core sort: every
// rank contributes its local error (nil for none), rank 0 folds the
// contributions in ascending rank order and redistributes the first
// failure.  A rank whose storage operation failed can thereby abort the
// whole team at a schedule point instead of stranding its peers inside a
// later collective; every rank returns a non-nil error, its own first.
// Control traffic is deliberately unmetered — CommStats records the data
// plane the §V model prices.
func (c *rankComm) agreeError(local error) error {
	p := c.procs()
	if p == 1 {
		return local
	}
	msg := ""
	if local != nil {
		msg = local.Error()
		if msg == "" {
			// The empty string is the wire encoding of "no error"; an
			// error whose message is empty must still abort every rank.
			msg = "unspecified failure"
		}
	}
	if c.rank == 0 {
		for src := 1; src < p; src++ {
			if s := c.recvString(src); s != "" && msg == "" {
				msg = s
			}
		}
		for dst := 1; dst < p; dst++ {
			c.send(dst, msg)
		}
	} else {
		c.send(0, msg)
		msg = c.recvString(0)
	}
	switch {
	case local != nil:
		return local
	case msg != "":
		return fmt.Errorf("dist: peer rank failed: %s", msg)
	default:
		return nil
	}
}

// exchangeSegments performs the personalized all-to-all of the out-of-core
// sort's spilled-run routing: out[d] holds this rank's sorted run segments
// for rank d, in run order.  Segment boundaries survive the wire — the
// receiver's k-way merge needs each segment as its own sorted stream — and
// the inbound groups are returned in ascending source order, which
// combined with run order inside each group is global input order, the
// stability invariant.  Outbox ownership transfers to the receiver.  Only
// off-rank edges are metered, at edgeWireBytes each — segment framing adds
// no modeled bytes, so the record equals the in-memory exchange's for the
// same splitters.
func (c *rankComm) exchangeSegments(out [][]*edge.List) [][]*edge.List {
	p := c.procs()
	in := make([][]*edge.List, p)
	in[c.rank] = out[c.rank]
	for dst := 0; dst < p; dst++ {
		if dst == c.rank {
			continue
		}
		c.send(dst, out[dst])
		for _, seg := range out[dst] {
			c.st.AllToAllBytes += edgeWireBytes * uint64(seg.Len())
		}
	}
	for src := 0; src < p; src++ {
		if src == c.rank {
			continue
		}
		in[src] = c.recvSegments(src)
	}
	return in
}

// exchangeEdges performs the personalized all-to-all of kernel 1's bucket
// exchange and kernel 2's edge routing: out[d] is this rank's outbox for
// rank d.  It returns the p inbound lists in ascending source order (the
// self outbox in place), which is what keeps every destination's edge
// stream in global input order — the stability invariant both kernels
// rely on.  Outbox ownership transfers to the receiver; only off-rank
// edges are metered, at edgeWireBytes each.
func (c *rankComm) exchangeEdges(out []*edge.List) []*edge.List {
	p := c.procs()
	in := make([]*edge.List, p)
	in[c.rank] = out[c.rank]
	for dst := 0; dst < p; dst++ {
		if dst == c.rank {
			continue
		}
		c.send(dst, out[dst])
		c.st.AllToAllBytes += edgeWireBytes * uint64(out[dst].Len())
	}
	for src := 0; src < p; src++ {
		if src == c.rank {
			continue
		}
		in[src] = c.recvEdges(src)
	}
	return in
}

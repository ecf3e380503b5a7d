package fastio

import (
	"errors"

	"repro/internal/edge"
)

// Overlapped streaming (DESIGN.md §9).  A StripedSource decodes ahead of
// its caller and a StripedSink encodes behind it, each on one helper
// goroutine the stream starts on first use and joins in Close.  The two
// goroutines trade a fixed set of overlapDepth batches through two FIFO
// channels — full in stream order, free back — so the codec sees the same
// edges in the same order, makes the same Write calls and writes the same
// bytes as it would on the caller's goroutine.

const (
	// overlapBatch is the edges per batch: one Packed block, so each
	// channel hand-off is paid by thousands of edges.
	overlapBatch = PackedBlockEdges
	// overlapDepth is the batches per stream: one on each side and one in
	// flight between them.
	overlapDepth = 3
)

// errClosed is what a read after Close returns.
var errClosed = errors.New("fastio: read from a closed stream")

// batch is the unit a stream's two goroutines trade.
type batch struct {
	l     edge.List
	err   error // read ahead: what ended the stream after l; write behind: the helper's first error
	flush bool  // write behind: flush the stream after l
}

// pipe joins a stream's caller and its helper.  Each channel has room for
// every batch, so no send blocks; only receives wait.
type pipe struct {
	full, free chan *batch
	done       chan struct{} // closed when the helper returns
}

// start makes the pipe's batches and runs helper on the stream's helper
// goroutine.
func (p *pipe) start(helper func()) {
	p.full = make(chan *batch, overlapDepth)
	p.free = make(chan *batch, overlapDepth)
	p.done = make(chan struct{})
	for range overlapDepth {
		p.free <- &batch{l: edge.List{U: make([]uint64, 0, overlapBatch), V: make([]uint64, 0, overlapBatch)}}
	}
	//prlint:allow determinism -- the helper is the single producer (read ahead) or single consumer (write behind) of a FIFO whose other end is the caller, so batches keep stream order and no byte or edge depends on scheduling
	go func() {
		defer close(p.done)
		helper()
	}()
}

// readAhead serves reads from batches that fill decodes on the helper.
type readAhead struct {
	fill func(l *edge.List, max int) (int, error) // the stream itself; runs on the helper only
	pipe
	stop chan struct{} // closed by halt; nil when no helper runs
	cur  *batch        // the batch reads are served from; nil before the first read
	pos  int           // cur's next edge
}

// decode is the helper: it fills free batches and queues them in order
// until the stream ends, fails or is halted.
func (r *readAhead) decode() {
	for {
		var b *batch
		select {
		case b = <-r.free:
		case <-r.stop:
			return
		}
		b.l.Reset()
		_, b.err = r.fill(&b.l, overlapBatch)
		r.full <- b
		if b.err != nil {
			return
		}
	}
}

// next returns the batch with the stream's next edge, starting the helper
// on the first call.  The error that ended the stream is returned by this
// call and every later one.
func (r *readAhead) next() (*batch, error) {
	for r.cur == nil || r.pos == r.cur.l.Len() {
		switch {
		case r.cur == nil:
			r.stop = make(chan struct{})
			r.start(r.decode)
		case r.cur.err != nil:
			return nil, r.cur.err
		default:
			r.free <- r.cur
		}
		r.cur, r.pos = <-r.full, 0
	}
	return r.cur, nil
}

// ReadEdges implements EdgeSource.  It returns what is left of one batch
// at most.
func (r *readAhead) ReadEdges(l *edge.List, max int) (int, error) {
	b, err := r.next()
	if err != nil {
		return 0, err
	}
	n := min(max, b.l.Len()-r.pos)
	l.U = append(l.U, b.l.U[r.pos:r.pos+n]...)
	l.V = append(l.V, b.l.V[r.pos:r.pos+n]...)
	r.pos += n
	return n, nil
}

// halt stops the helper, if one runs, and waits until it has returned;
// later reads return errClosed.
func (r *readAhead) halt() {
	if r.stop != nil {
		close(r.stop)
		<-r.done
		r.stop = nil
	}
	r.cur, r.pos = &batch{err: errClosed}, 0
}

// writeBehind queues writes in batches that drain encodes on the helper.
type writeBehind struct {
	drain func(l *edge.List) error // the stream itself; runs on the helper once one is started
	flush func() error             // likewise
	pipe
	cur *batch // the batch writes fill; nil while no helper runs
	err error  // the first error the helper reported
}

// encode is the helper: it drains queued batches in order until the
// caller closes full.  After the first error it drains nothing more and
// returns every batch carrying that error.
func (w *writeBehind) encode() {
	var err error
	for b := range w.full {
		if err == nil {
			err = w.drain(&b.l)
		}
		if err == nil && b.flush {
			err = w.flush()
		}
		b.err = err
		w.free <- b
	}
}

// take queues the current batch, if any, and makes an empty one current,
// starting the helper on first use.  It returns the first error the
// helper has reported.
func (w *writeBehind) take() error {
	if w.err != nil {
		return w.err
	}
	if w.cur == nil {
		w.start(w.encode)
	} else {
		w.full <- w.cur
	}
	w.cur = <-w.free
	w.cur.l.Reset()
	w.cur.flush = false
	w.err = w.cur.err
	return w.err
}

// WriteEdge queues one edge.  Nothing calls it: kronecker.GenerateTo hands
// a StripedSink whole batches through WriteEdges.  It only completes the
// method set that lets a StripedSink stand for GenerateTo's per-edge writer
// parameter, which the benchmark harness (bench/replay.go) still passes.
// It goes when GenerateTo does (ROADMAP 10c: one streaming kernel 0), or
// when the harness's probe moves off GenerateTo (ROADMAP 1b).
func (w *writeBehind) WriteEdge(u, v uint64) error {
	if w.cur == nil || w.cur.l.Len() == overlapBatch {
		if err := w.take(); err != nil {
			return err
		}
	}
	w.cur.l.Append(u, v)
	return nil
}

// WriteEdges implements EdgeSink.
func (w *writeBehind) WriteEdges(l *edge.List, lo, hi int) error {
	for lo < hi {
		if w.cur == nil || w.cur.l.Len() == overlapBatch {
			if err := w.take(); err != nil {
				return err
			}
		}
		n := min(hi-lo, overlapBatch-w.cur.l.Len())
		w.cur.l.U = append(w.cur.l.U, l.U[lo:lo+n]...)
		w.cur.l.V = append(w.cur.l.V, l.V[lo:lo+n]...)
		lo += n
	}
	return nil
}

// Flush implements EdgeSink.  It is a barrier: it returns once every
// edge written before it has been encoded and the stream flushed, with the
// first error the helper reported.
func (w *writeBehind) Flush() error {
	if w.cur == nil {
		return w.flush() // no helper: nothing is queued
	}
	return w.sync(true)
}

// sync queues the current batch, flushing the stream after it when flush
// is set, and waits until the helper has returned every batch.
func (w *writeBehind) sync(flush bool) error {
	w.cur.flush = flush
	w.full <- w.cur
	var home [overlapDepth]*batch
	for i := range home {
		home[i] = <-w.free
		if w.err == nil {
			w.err = home[i].err
		}
	}
	w.cur = home[0]
	w.cur.l.Reset()
	for _, b := range home[1:] {
		w.free <- b
	}
	return w.err
}

// finish waits for every queued edge, stops the helper and returns the
// first error it reported.  The stream is the caller's again afterwards.
func (w *writeBehind) finish() error {
	if w.cur == nil {
		return nil // no helper
	}
	err := w.sync(false)
	close(w.full)
	<-w.done
	w.pipe, w.cur, w.err = pipe{}, nil, nil
	return err
}

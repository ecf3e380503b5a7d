package fastio

import (
	"errors"

	"repro/internal/edge"
	"repro/internal/workteam"
)

// Overlapped streaming (DESIGN.md §9).  A StripedSource decodes ahead of
// its caller and a StripedSink encodes behind it, each on a one-goroutine
// workteam.Ring of overlapDepth batches that the stream starts on first
// use and closes in Close.  The ring runs the batches one at a time in
// stream order, so the codec sees the same edges in the same order, makes
// the same Write calls and writes the same bytes as it would on the
// caller's goroutine.

const (
	// overlapBatch is the edges per batch: one Packed block, so each
	// hand-off is paid by thousands of edges.
	overlapBatch = PackedBlockEdges
	// overlapDepth is the batches per stream: one on each side and one in
	// flight between them.
	overlapDepth = 3
)

// errClosed is what a read after Close returns.
var errClosed = errors.New("fastio: read from a closed stream")

// batch is one slot of a stream's ring.
type batch struct {
	l     edge.List
	err   error // read ahead: what ended the stream after l; write behind: the stream's first error
	flush bool  // write behind: flush the stream after l
}

// startRing starts a stream's ring of overlapDepth batches on one goroutine.
func startRing(work func(c int)) ([]batch, *workteam.Ring) {
	b := make([]batch, overlapDepth)
	for i := range b {
		b[i].l = edge.List{U: make([]uint64, 0, overlapBatch), V: make([]uint64, 0, overlapBatch)}
	}
	return b, workteam.NewRing(1, overlapDepth, work)
}

// readAhead serves reads from batches that fill decodes on the ring.
type readAhead struct {
	fill    func(l *edge.List, max int) (int, error) // the stream itself; runs on the ring only
	ring    *workteam.Ring                           // nil before the first read and after halt
	batches []batch
	end     error  // what ended the stream; the ring's own
	cur     *batch // the batch reads are served from; nil before the first read
	pos     int    // cur's next edge
}

// decode is the ring's work: it fills batch c, unless the stream has
// ended, which batch c then repeats with no I/O.
func (r *readAhead) decode(c int) {
	b := &r.batches[c%overlapDepth]
	b.l.Reset()
	if b.err = r.end; b.err == nil {
		_, b.err = r.fill(&b.l, overlapBatch)
		r.end = b.err
	}
}

// next returns the batch with the stream's next edge, starting the ring
// on the first call.  The error that ended the stream is returned by this
// call and every later one.
func (r *readAhead) next() (*batch, error) {
	for r.cur == nil || r.pos == r.cur.l.Len() {
		switch {
		case r.cur == nil:
			r.batches, r.ring = startRing(r.decode)
			for range overlapDepth - 1 {
				r.ring.Put()
			}
		case r.cur.err != nil:
			return nil, r.cur.err
		}
		r.ring.Put() // into the slot cur leaves
		r.cur, r.pos = &r.batches[r.ring.Wait()%overlapDepth], 0
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

// halt closes the ring, if one runs, once its batches in flight are done;
// later reads return errClosed.
func (r *readAhead) halt() {
	if r.ring != nil {
		r.ring.Close()
		r.ring = nil
	}
	r.cur, r.pos = &batch{err: errClosed}, 0
}

// writeBehind queues writes in batches that drain encodes on the ring.
type writeBehind struct {
	drain   func(l *edge.List) error // the stream itself; runs on the ring once one is started
	flush   func() error             // likewise
	ring    *workteam.Ring           // nil while none runs
	batches []batch
	failed  error  // the first error drain or flush returned; the ring's own
	cur     *batch // the batch writes fill, piece ring.Next()'s; nil while no ring runs
	err     error  // the first error of a batch waited for
}

// encode is the ring's work: it drains batch c and flushes the stream if
// the batch asks, unless an earlier batch failed, and leaves the first
// error in the batch.
func (w *writeBehind) encode(c int) {
	b := &w.batches[c%overlapDepth]
	if w.failed == nil {
		w.failed = w.drain(&b.l)
	}
	if w.failed == nil && b.flush {
		w.failed = w.flush()
	}
	b.err = w.failed
}

// take queues the current batch, if any, and makes an empty one current,
// starting the ring on first use.  It returns the first error of a batch
// waited for.
func (w *writeBehind) take() error {
	if w.err != nil {
		return w.err
	}
	if w.cur == nil {
		w.batches, w.ring = startRing(w.encode)
	} else {
		w.cur.flush = false
		w.ring.Put()
		if w.ring.InFlight() == overlapDepth {
			w.collect() // the batch whose slot the next one takes
		}
	}
	w.next()
	return w.err
}

// collect waits for the oldest batch in flight and keeps its error if it
// is the first.
func (w *writeBehind) collect() {
	if b := &w.batches[w.ring.Wait()%overlapDepth]; w.err == nil {
		w.err = b.err
	}
}

// next makes the next piece's batch current, empty.
func (w *writeBehind) next() {
	w.cur = &w.batches[w.ring.Next()%overlapDepth]
	w.cur.l.Reset()
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
// first error of a batch.
func (w *writeBehind) Flush() error {
	if w.cur == nil {
		return w.flush() // no ring: nothing is queued
	}
	return w.sync(true)
}

// sync queues the current batch, to flush the stream after it if flush is
// set, and waits for every batch queued.
func (w *writeBehind) sync(flush bool) error {
	w.cur.flush = flush
	w.ring.Put()
	for w.ring.InFlight() > 0 {
		w.collect()
	}
	w.next()
	return w.err
}

// finish waits for every queued edge, closes the ring and returns the
// first error of a batch.  The stream is the caller's again afterwards.
func (w *writeBehind) finish() error {
	if w.cur == nil {
		return nil // no ring
	}
	err := w.sync(false)
	w.ring.Close()
	w.ring, w.batches, w.cur, w.err, w.failed = nil, nil, nil, nil, nil
	return err
}

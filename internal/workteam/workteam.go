// Package workteam holds the repo's two worker shapes, both spawned once
// and driven over pre-made channels, so neither allocates per round or
// per piece (DESIGN.md §7); at one worker, both run on the caller.
//
// A Team is a persistent signal/join team: n goroutines that each run the
// round's work function, or the caller alone at one worker.  Kernel 2's
// filter, the kernel-3 transpose and product (internal/sparse, under the
// parallel PageRank engine and the hybrid per-rank teams) and the hybrid
// kernel-1 partition (internal/dist) run on it.
//
// A Ring is an ordered ring of pieces (DESIGN.md §9 "The ordered ring"):
// the caller puts numbered pieces, goroutines run them, and the caller
// waits for them in put order.  Every width-invariant pass of the cold
// path runs on one: kernel 0's sampling and shuffle (internal/kronecker),
// the whole-list codec passes and the streamed stripes
// (internal/fastio), and the in-memory sort (internal/xsort).
package workteam

import (
	"runtime"
	"sync"
)

// Width is the goroutines a worker count asks for: n, or GOMAXPROCS
// when n <= 0.
func Width(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Team is a fixed set of workers that run one work function per round:
// n goroutines, or, at one worker, the caller alone.  A Team must be
// Closed when no longer needed or its goroutines leak; it must not be
// used after Close, and rounds must not overlap (Run is not reentrant).
type Team struct {
	work  func(worker int) // this round's work
	start []chan struct{}  // nil at one worker
	wg    sync.WaitGroup
}

// New returns a team of n workers (at least one).  At one it starts no
// goroutine; otherwise it spawns n, each waiting for Run's rounds.
func New(n int) *Team {
	t := &Team{}
	if n <= 1 {
		return t
	}
	t.start = make([]chan struct{}, n)
	for i := range t.start {
		ch := make(chan struct{}, 1)
		t.start[i] = ch
		go func(worker int) {
			for range ch {
				t.work(worker)
				t.wg.Done()
			}
		}(i)
	}
	return t
}

// Run runs one round, f(worker) on every worker, and returns when all
// have; at one worker f(0) runs on the caller.  Per-round inputs are
// typically fields of the owning struct that the caller writes before
// Run: the signalling channel send happens-after those writes and the
// join happens-after every worker's f returns, so the workers never race
// the caller on them.  A func value built once runs with zero heap
// allocations per round.
func (t *Team) Run(f func(worker int)) {
	if t.start == nil {
		f(0)
		return
	}
	t.work = f
	t.wg.Add(len(t.start))
	for _, ch := range t.start {
		ch <- struct{}{}
	}
	t.wg.Wait()
}

// Close terminates the worker goroutines.  The team must not be used
// afterwards.
func (t *Team) Close() {
	for _, ch := range t.start {
		close(ch)
	}
}

// Ring runs work(c) for the pieces c = 0, 1, … in the order Put puts
// them, on a fixed set of goroutines, and Wait hands them back in that
// order.  At most slots pieces are in flight, put and not yet waited for,
// so piece c may own slot c mod slots of the caller's buffers: the caller
// has waited for piece c − slots, and is done with its slot, before it
// puts piece c.  Put happens-before its piece's work, and the work
// happens-before the Wait that returns it.
//
// On zero goroutines work runs inline, on the caller's inside Put.  On
// one it runs on that goroutine one piece at a time, in put order, so it
// may carry state from piece to piece.  A caller that stops early (on an
// error, say) stops putting and calls Close.  A Ring must be Closed, or
// its goroutines leak.
type Ring struct {
	work        func(c int)
	slots       int
	todo        chan int
	done        []chan struct{}
	wg          sync.WaitGroup
	put, waited int // pieces put, and waited for, so far
}

// NewRing starts a ring of slots slots (at least one) on goroutines
// goroutines.
func NewRing(goroutines, slots int, work func(c int)) *Ring {
	if slots < 1 {
		panic("workteam: a ring needs a slot")
	}
	r := &Ring{work: work, slots: slots}
	if goroutines == 0 {
		return r
	}
	// Each channel holds a send per slot, so no send blocks.
	r.todo, r.done = make(chan int, slots), make([]chan struct{}, slots)
	for i := range r.done {
		r.done[i] = make(chan struct{}, 1)
	}
	r.wg.Add(goroutines)
	for range goroutines {
		go func() {
			defer r.wg.Done()
			for c := range r.todo {
				r.work(c)
				r.done[c%r.slots] <- struct{}{}
			}
		}()
	}
	return r
}

// Wide is a ring of Width(workers) goroutines with two slots each, one
// piece running and one waiting on the caller, or, at one worker, one slot
// on the caller's goroutine alone.
func Wide(workers int, work func(c int)) *Ring {
	if w := Width(workers); w > 1 {
		return NewRing(w, WideSlots(workers), work)
	}
	return NewRing(0, 1, work)
}

// WideSlots is the slots of a Wide ring of workers.
func WideSlots(workers int) int {
	if w := Width(workers); w > 1 {
		return 2 * w
	}
	return 1
}

// Slots is the ring's slots: the most pieces in flight.
func (r *Ring) Slots() int { return r.slots }

// Next is the number the next Put gives its piece: the pieces put so far.
func (r *Ring) Next() int { return r.put }

// InFlight is the pieces put and not yet waited for.
func (r *Ring) InFlight() int { return r.put - r.waited }

// Put puts piece Next() and returns its number.  It panics when slots
// pieces are in flight.
func (r *Ring) Put() int {
	if r.put-r.waited == r.slots {
		panic("workteam: Put on a full ring")
	}
	c := r.put
	r.put++
	if r.todo == nil {
		r.work(c)
	} else {
		r.todo <- c
	}
	return c
}

// Wait waits for the oldest piece in flight to be done and returns its
// number.  It panics when no piece is in flight.
func (r *Ring) Wait() int {
	if r.put == r.waited {
		panic("workteam: Wait on an empty ring")
	}
	c := r.waited
	r.waited++
	if r.done != nil {
		<-r.done[c%r.slots]
	}
	return c
}

// Close waits for the pieces in flight and stops the goroutines.  The
// ring must not be used afterwards.
func (r *Ring) Close() {
	for r.waited < r.put {
		r.Wait()
	}
	if r.todo != nil {
		close(r.todo)
		r.wg.Wait()
	}
}

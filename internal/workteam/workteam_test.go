package workteam

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestTeamRunsEveryWorkerPerRound(t *testing.T) {
	var hits [5]int64
	tm := New(5)
	defer tm.Close()
	work := func(w int) { atomic.AddInt64(&hits[w], 1) }
	const rounds = 7
	for i := 0; i < rounds; i++ {
		tm.Run(work)
	}
	for w, h := range hits {
		if h != rounds {
			t.Errorf("worker %d ran %d times, want %d", w, h, rounds)
		}
	}
}

func TestTeamRunZeroAllocs(t *testing.T) {
	var sink int64
	tm := New(4)
	defer tm.Close()
	work := func(w int) { atomic.AddInt64(&sink, int64(w)) }
	tm.Run(work) // warm
	if allocs := testing.AllocsPerRun(50, func() { tm.Run(work) }); allocs != 0 {
		t.Errorf("Run allocates %.1f/op, want 0", allocs)
	}
}

// TestTeamOneWorkerRunsInline: a team of one starts no goroutine and runs
// each round on the caller, and a round allocates nothing at one worker
// or at four.
func TestTeamOneWorkerRunsInline(t *testing.T) {
	base := runtime.NumGoroutine()
	tm := New(1)
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("New(1): %d goroutines, %d before", n, base)
	}
	var ran []int
	during := 0
	tm.Run(func(w int) { ran, during = append(ran, w), runtime.NumGoroutine() })
	if len(ran) != 1 || ran[0] != 0 || during != base {
		t.Errorf("one worker ran %v with %d goroutines, want [0] with %d", ran, during, base)
	}
	tm.Close()
	for _, n := range []int{1, 4} {
		var sink atomic.Int64
		tm := New(n)
		work := func(w int) { sink.Add(int64(w)) }
		if allocs := testing.AllocsPerRun(50, func() { tm.Run(work) }); allocs != 0 {
			t.Errorf("%d workers: Run allocates %.1f/op, want 0", n, allocs)
		}
		tm.Close()
	}
}

// TestTeamRunTakesEachRoundsWork: each round runs the function it is
// given, on every worker, and the caller sees what it wrote.
func TestTeamRunTakesEachRoundsWork(t *testing.T) {
	for _, n := range []int{1, 3} {
		tm := New(n)
		got := make([]int, n)
		add := func(w int) { got[w] += w + 1 }
		double := func(w int) { got[w] *= 2 }
		for _, f := range []func(int){add, double, add} {
			tm.Run(f)
		}
		for w, g := range got {
			if want := 3 * (w + 1); g != want {
				t.Errorf("%d workers: worker %d holds %d, want %d", n, w, g, want)
			}
		}
		tm.Close()
	}
}

// ringWidths are the goroutine counts the ring tests run at: inline, one,
// and more than one.
var ringWidths = []int{0, 1, 2, 8}

// TestRingWaitsInPutOrder: Wait returns the pieces in the order Put puts
// them, each done, whatever order the goroutines finish them in.
func TestRingWaitsInPutOrder(t *testing.T) {
	for _, g := range ringWidths {
		const pieces, slots = 200, 5
		var out [slots]int
		r := NewRing(g, slots, func(c int) {
			for range (pieces - c) % 7 * 1000 { // uneven work
				runtime.Gosched()
			}
			out[c%slots] = c + 1
		})
		for want := 0; want < pieces; {
			if r.Next() < pieces && r.InFlight() < slots {
				r.Put()
				continue
			}
			if c := r.Wait(); c != want || out[c%slots] != c+1 {
				t.Fatalf("%d goroutines: waited for piece %d (done: %v), want %d", g, c, out[c%slots] == c+1, want)
			}
			want++
		}
		r.Close()
	}
}

// TestRingBoundsPiecesInFlight: no more than slots pieces are in flight,
// so no more than slots run at once, and Put on a full ring panics.
func TestRingBoundsPiecesInFlight(t *testing.T) {
	for _, g := range ringWidths {
		for _, slots := range []int{1, 3, 16} {
			var running, most atomic.Int64
			r := NewRing(g, slots, func(int) {
				n := running.Add(1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				runtime.Gosched()
				running.Add(-1)
			})
			for range 100 {
				for r.InFlight() < slots {
					r.Put()
				}
				if r.InFlight() != slots {
					t.Fatalf("%d goroutines, %d slots: %d in flight", g, slots, r.InFlight())
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%d goroutines, %d slots: Put on a full ring did not panic", g, slots)
						}
					}()
					r.Put()
				}()
				r.Wait()
			}
			r.Close()
			if m := int(most.Load()); m > slots || m > max(g, 1) {
				t.Errorf("%d goroutines, %d slots: %d pieces ran at once", g, slots, m)
			}
		}
	}
}

// TestRingOneGoroutineRunsInOrder: on one goroutine the pieces run one at
// a time in put order, so work may carry state from piece to piece with
// no lock (the race detector checks that it needs none).
func TestRingOneGoroutineRunsInOrder(t *testing.T) {
	next := 0 // the work's own state
	var bad atomic.Int64
	r := NewRing(1, 4, func(c int) {
		if c != next {
			bad.Add(1)
		}
		next++
	})
	for c := 0; c < 1000; c++ {
		if r.InFlight() == 4 {
			r.Wait()
		}
		r.Put()
	}
	r.Close()
	if bad.Load() != 0 || next != 1000 {
		t.Errorf("%d pieces out of order, %d run, want 0 and 1000", bad.Load(), next)
	}
}

// TestRingZeroGoroutinesStartsNone: on zero goroutines the ring starts
// none and runs each piece inside Put.
func TestRingZeroGoroutinesStartsNone(t *testing.T) {
	base := runtime.NumGoroutine()
	ran, during := -1, 0
	r := NewRing(0, 2, func(c int) { ran, during = c, runtime.NumGoroutine() })
	for c := range 10 {
		if r.Put(); ran != c || during != base {
			t.Fatalf("piece %d: ran %d inside Put with %d goroutines, %d before", c, ran, during, base)
		}
		r.Wait()
	}
	r.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines after Close, %d before", n, base)
	}
}

// TestRingEarlyCloseLeavesNoGoroutine: a caller that stops putting part
// way and closes the ring finds every piece it put done, and no goroutine
// of the ring left.
func TestRingEarlyCloseLeavesNoGoroutine(t *testing.T) {
	for _, g := range ringWidths {
		base := runtime.NumGoroutine()
		var done atomic.Int64
		r := NewRing(g, 6, func(int) {
			runtime.Gosched()
			done.Add(1)
		})
		for range 4 {
			r.Put()
		}
		r.Wait()
		r.Close()
		if done.Load() != 4 {
			t.Errorf("%d goroutines: %d of 4 pieces done at Close", g, done.Load())
		}
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines: %d left after Close, %d before", g, runtime.NumGoroutine(), base)
			}
		}
	}
}

// TestRingPutWaitZeroAllocs: putting and waiting for a piece allocates
// nothing, at every width.
func TestRingPutWaitZeroAllocs(t *testing.T) {
	for _, g := range ringWidths {
		var sink atomic.Int64
		r := NewRing(g, 2, func(c int) { sink.Add(int64(c)) })
		if allocs := testing.AllocsPerRun(100, func() { r.Put(); r.Wait() }); allocs != 0 {
			t.Errorf("%d goroutines: Put and Wait allocate %.1f/piece, want 0", g, allocs)
		}
		r.Close()
	}
}

// TestWidth: <= 0 asks for GOMAXPROCS, and any other count for itself.
func TestWidth(t *testing.T) {
	for n, want := range map[int]int{-1: runtime.GOMAXPROCS(0), 0: runtime.GOMAXPROCS(0), 1: 1, 7: 7} {
		if got := Width(n); got != want {
			t.Errorf("Width(%d) = %d, want %d", n, got, want)
		}
	}
}

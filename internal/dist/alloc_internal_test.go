package dist

// Allocation-regression pins for the hybrid runtime's steady state
// (DESIGN.md §7): one collective send/receive round trip over the pooled
// fabric and one hybrid per-rank kernel-3 step must perform zero heap
// allocations once warm.  These are the dist-side thirds of the
// zero-allocation budget; internal/pagerank pins the iteration engine
// itself.

import (
	"context"
	"math"
	"testing"

	"repro/internal/kronecker"
	"repro/internal/pagerank"
)

// testBlock builds rank r's filtered block of p from a small Kronecker
// graph: kernel 2 on one rank (no peers, so no fabric traffic), split.
func testBlock(t testing.TB, p, r int) (*rankState, int) {
	t.Helper()
	cfg := kronecker.New(8, 3)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int(cfg.N())
	st, _, _ := buildRank(newRankComm(newChanFabric(1, false), 0), l, n)
	return splitMatrix(assemble([]*rankState{st}, n), p)[r], n
}

func TestHybridStepZeroAllocs(t *testing.T) {
	st, n := testBlock(t, 3, 1)
	for _, w := range []int{2, 4} {
		h := newHybridSpMV(st.blk, w)
		out := make([]float64, n)
		r := make([]float64, n)
		for i := range r {
			r[i] = 1 / float64(n)
		}
		h.vxm(out, r) // warm the team
		if allocs := testing.AllocsPerRun(50, func() { h.vxm(out, r) }); allocs != 0 {
			t.Errorf("w=%d: hybrid per-rank SpMV step allocates %.1f/op, want 0", w, allocs)
		}
		h.close()
	}
}

func TestHybridMatchesSerialBlockVxM(t *testing.T) {
	// The unit-level bit-equality behind the p×w property tests: the
	// transposed-gather product must equal the serial scatter exactly.
	st, n := testBlock(t, 3, 1)
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) / 3
	}
	r[st.blk.lo] = 0 // exercise the zero-skip path
	want := make([]float64, n)
	st.blk.vxm(want, r)
	for _, w := range []int{2, 3, 8} {
		h := newHybridSpMV(st.blk, w)
		got := make([]float64, n)
		for i := range got {
			got[i] = -1 // stale values must be overwritten or zeroed
		}
		h.vxm(got, r)
		h.close()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("w=%d: out[%d] = %v, serial %v", w, j, got[j], want[j])
			}
		}
	}
}

// TestBlockVxMMatchesNaiveScatter holds block.vxm to the loop it
// replaced, bit for bit: every rank's block of a filtered Kronecker
// matrix and an empty block, with zero, negative-zero, infinite and NaN
// entries in r.
func TestBlockVxMMatchesNaiveScatter(t *testing.T) {
	naive := func(b *block, out, r []float64) {
		for i := range out {
			out[i] = 0
		}
		for i := 0; i < b.rows(); i++ {
			ri := r[b.lo+i]
			if ri == 0 {
				continue
			}
			for k := b.rowPtr[i]; k < b.rowPtr[i+1]; k++ {
				out[b.col[k]] += ri * b.val[k]
			}
		}
	}
	check := func(name string, b *block, r []float64) {
		t.Helper()
		want, got := make([]float64, b.n), make([]float64, b.n)
		for i := range got {
			got[i] = -1 // stale values must be zeroed
		}
		naive(b, want, r)
		b.vxm(got, r)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: out[%d] = %v, naive scatter %v", name, j, got[j], want[j])
			}
		}
	}
	for rank := 0; rank < 3; rank++ {
		st, n := testBlock(t, 3, rank)
		r := make([]float64, n)
		for i := range r {
			r[i] = float64(i%7)/3 - 1 // zeros included
		}
		check("plain", st.blk, r)
		lo := st.blk.lo
		r[lo], r[lo+1], r[lo+2], r[lo+3] = math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()
		check("special values", st.blk, r)
	}
	check("empty block", &block{lo: 5, hi: 5, n: 8, rowPtr: []int64{0}}, make([]float64, 8))
}

func TestCollectiveRoundTripZeroAllocs(t *testing.T) {
	// One allReduceSum + one allReduceScalar round trip at p = 2 over the
	// pooled fabric.  Rank 1 runs a fixed number of lockstep rounds on a
	// helper goroutine; the collectives themselves synchronize the two
	// sides, and AllocsPerRun counts mallocs process-wide, so a stray
	// allocation on either side fails the pin.
	const warmup, runs = 8, 50
	const vecLen = 512
	f := newChanFabric(2, false)
	c0, c1 := newRankComm(f, 0), newRankComm(f, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		vec := make([]float64, vecLen)
		// AllocsPerRun calls its body runs+1 times (one warm-up call).
		for i := 0; i < warmup+runs+1; i++ {
			c1.allReduceSum(vec)
			c1.allReduceScalar(1)
		}
	}()
	vec := make([]float64, vecLen)
	round := func() {
		c0.allReduceSum(vec)
		c0.allReduceScalar(1)
	}
	for i := 0; i < warmup; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("collective round trip allocates %.1f/op, want 0", allocs)
	}
	<-done
}

func TestGoroutineIterationSteadyStateAllocFree(t *testing.T) {
	// End-to-end regression: the marginal allocation cost of extra
	// kernel-3 iterations in a full goroutine-mode hybrid run must be
	// zero — construction allocates, iterating must not.  Two runs
	// differing only in iteration count have identical setup, so the
	// difference divided by the extra iterations is the steady-state
	// per-iteration allocation count.
	cfg := kronecker.New(8, 3)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int(cfg.N())
	b, err := Execute(context.Background(), Spec{Op: OpBuildFiltered, Edges: l, N: n, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(iters int) {
		_, err := Execute(context.Background(), Spec{
			Config: Config{Mode: ExecGoroutine, Workers: 2}, Op: OpRunMatrix, Matrix: b.Build.Matrix, Procs: 3,
			PageRank: pagerank.Options{Iterations: iters, Seed: 1, Dangling: true},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	const extra = 40
	// testing.AllocsPerRun gives a clean malloc count per call; the
	// difference between the two run shapes is extra iterations' worth.
	short := testing.AllocsPerRun(3, func() { run(5) })
	long := testing.AllocsPerRun(3, func() { run(5 + extra) })
	perIter := (long - short) / extra
	if perIter > 0.5 {
		t.Errorf("steady-state goroutine iteration allocates %.2f/iter (short %.0f, long %.0f), want 0",
			perIter, short, long)
	}
}

package dist

// Allocation-regression pins for the hybrid runtime's steady state
// (DESIGN.md §7): one collective send/receive round trip over the pooled
// fabric and one hybrid per-rank kernel-3 step must perform zero heap
// allocations once warm.  These are the dist-side thirds of the
// zero-allocation budget; internal/pagerank pins the iteration engine
// itself.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/sparse"
)

// testMatrix is the filtered, normalized matrix of a small Kronecker
// graph, built by kernel 2 on one rank (no peers, so no fabric traffic).
func testMatrix(t testing.TB) *sparse.CSR {
	t.Helper()
	cfg := kronecker.New(8, 3)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int(cfg.N())
	st, _, _ := buildRank(newRankComm(newChanFabric(1, false), 0), l, n)
	return assemble([]*rankState{st}, n)
}

// testBlock is rank r's row block of p of testMatrix.
func testBlock(t testing.TB, p, r int) (*rankState, int) {
	t.Helper()
	a := testMatrix(t)
	return splitMatrix(a, p)[r], a.N
}

// naiveScatter is the rank product the gather replaced — the row-major
// scatter of the block, skipping zero r entries — kept as the oracle.
func naiveScatter(b *block, out, r []float64) {
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < b.rows(); i++ {
		ri := r[b.lo+i]
		if ri == 0 {
			continue
		}
		for k := b.rowPtr[i]; k < b.rowPtr[i+1]; k++ {
			out[b.col[k]] += float64(ri * b.val[k])
		}
	}
}

// sameFloatBits is bit equality, with every NaN equal to every NaN: which
// operand's payload survives an add of two NaNs is the instruction
// selector's choice, not part of the contract.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// productOf runs one rank product over st with workers into a fresh,
// stale-filled output.
func productOf(st *rankState, workers int, r []float64) []float64 {
	prod := newRankProduct(st.operand(), workers)
	defer prod.close()
	out := make([]float64, st.blk.n)
	for i := range out {
		out[i] = -1 // stale values must be overwritten
	}
	prod.vxm(out, r)
	return out
}

func TestHybridStepZeroAllocs(t *testing.T) {
	st, n := testBlock(t, 3, 1)
	op := st.operand()
	for _, w := range []int{1, 2, 4} {
		prod := newRankProduct(op, w)
		out := make([]float64, n)
		r := make([]float64, n)
		for i := range r {
			r[i] = 1 / float64(n)
		}
		prod.vxm(out, r) // warm the team
		if allocs := testing.AllocsPerRun(50, func() { prod.vxm(out, r) }); allocs != 0 {
			t.Errorf("w=%d: per-rank product step allocates %.1f/op, want 0", w, allocs)
		}
		prod.close()
	}
}

func TestHybridMatchesSerialBlockVxM(t *testing.T) {
	// The unit-level bit-equality behind the p×w property tests: the
	// team's nnz-balanced split must equal the serial product exactly.
	st, n := testBlock(t, 3, 1)
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) / 3
	}
	want := productOf(st, 1, r)
	for _, w := range []int{2, 3, 8} {
		got := productOf(st, w, r)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("w=%d: out[%d] = %v, serial %v", w, j, got[j], want[j])
			}
		}
	}
}

// TestBlockVxMMatchesNaiveScatter holds the rank product — the gather
// over the block's ordered transpose — to the scatter it replaced, bit
// for bit, for every rank of p ∈ {1,2,3,5,8} × workers {1,2,3}: with
// zeros in r from a personalized teleport (the entries the scatter
// skipped and the gather adds as ±0), with zero, negative-zero, infinite
// and NaN entries, and on an empty block.
func TestBlockVxMMatchesNaiveScatter(t *testing.T) {
	a := testMatrix(t)
	n := a.N
	v := make([]float64, n) // teleport to the even vertices only
	for i := 0; i < n; i += 2 {
		v[i] = 2 / float64(n)
	}
	res, err := pagerank.Scatter(a, pagerank.Options{Iterations: 2, Teleport: v, InitialRank: v, Policy: pagerank.DanglingTeleport})
	if err != nil {
		t.Fatal(err)
	}
	personalized := res.Rank
	zeros := 0
	for _, x := range personalized {
		if x == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("the personalized rank vector has no zeros: the skip is not exercised")
	}
	special := make([]float64, n)
	for i := range special {
		special[i] = float64(i%7)/3 - 1 // zeros included
	}
	check := func(name string, st *rankState, workers int, r []float64) {
		t.Helper()
		want := make([]float64, st.blk.n)
		naiveScatter(st.blk, want, r)
		got := productOf(st, workers, r)
		for j := range want {
			if !sameFloatBits(got[j], want[j]) {
				t.Fatalf("%s, w=%d: out[%d] = %v, naive scatter %v", name, workers, j, got[j], want[j])
			}
		}
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		for rank, st := range splitMatrix(a, p) {
			r := append([]float64(nil), special...)
			if lo := st.blk.lo; st.blk.rows() >= 4 {
				r[lo], r[lo+1], r[lo+2], r[lo+3] = math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()
			}
			name := fmt.Sprintf("p=%d rank %d", p, rank)
			for _, w := range []int{1, 2, 3} {
				check(name+" personalized", st, w, personalized)
				check(name+" special values", st, w, r)
			}
		}
	}
	empty := &rankState{blk: &block{lo: 5, hi: 5, n: 8, rowPtr: []int64{0}}}
	check("empty block", empty, 1, make([]float64, 8))
	check("empty block", empty, 3, make([]float64, 8))
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

package pagerank

// Tests for the reusable iteration engine: equivalence with the one-shot
// entry points, Reset determinism, and the zero-allocation steady-state
// pins the hybrid runtime's allocation budget rests on (DESIGN.md §7).

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/edge"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func engineTestMatrix(t testing.TB, seed uint64, m, n int) *sparse.CSR {
	t.Helper()
	g := xrand.New(seed)
	l := edge.NewList(m)
	for i := 0; i < m; i++ {
		l.Append(g.Uint64n(uint64(n)), g.Uint64n(uint64(n)))
	}
	a, err := sparse.FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	a.ScaleRows(a.OutDegrees()) // row-stochastic, like kernel 2's output
	return a
}

func TestEngineRunEqualsScatter(t *testing.T) {
	a := engineTestMatrix(t, 1, 1<<12, 1<<9)
	for _, opt := range []Options{
		{Seed: 3},
		{Seed: 3, Dangling: true, Iterations: 7},
		{Seed: 3, Tolerance: 1e-8, Iterations: 500},
	} {
		want, err := Scatter(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewScatterEngine(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Run()
		if got.Iterations != want.Iterations ||
			math.Float64bits(got.FinalDiff) != math.Float64bits(want.FinalDiff) {
			t.Fatalf("engine iters/diff %d/%v, Scatter %d/%v",
				got.Iterations, got.FinalDiff, want.Iterations, want.FinalDiff)
		}
		for i := range want.Rank {
			if got.Rank[i] != want.Rank[i] {
				t.Fatalf("engine rank[%d] = %v, Scatter %v", i, got.Rank[i], want.Rank[i])
			}
		}
	}
}

// TestGatherEngineWithSharedTranspose pins that engines handed one
// ready transpose — the staged cache's — run bit for bit like engines
// that transpose for themselves, and leave the shared copy untouched.
func TestGatherEngineWithSharedTranspose(t *testing.T) {
	a := engineTestMatrix(t, 2, 1<<12, 1<<9)
	at, pristine := a.TransposeOrdered(), a.TransposeOrdered()
	opt := Options{Seed: 3, Dangling: true, Iterations: 7}
	own, err := NewGatherEngine(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := own.Run().Rank
	for i := 0; i < 2; i++ {
		e, err := NewGatherEngineWith(a, at, opt)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range e.Run().Rank {
			if v != want[j] {
				t.Fatalf("engine %d over the shared transpose differs at %d: %v vs %v", i, j, v, want[j])
			}
		}
	}
	for k := range at.Val {
		if at.Val[k] != pristine.Val[k] || at.Col[k] != pristine.Col[k] {
			t.Fatalf("shared transpose modified at entry %d", k)
		}
	}
	for p := range at.Rows {
		if at.Rows[p] != pristine.Rows[p] {
			t.Fatalf("shared transpose reordered at position %d", p)
		}
	}
}

func TestEngineResetReproducesRun(t *testing.T) {
	a := engineTestMatrix(t, 2, 1<<12, 1<<9)
	e, err := NewGatherEngine(a, Options{Seed: 5, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), e.Run().Rank...)
	if e.Iterations() != 6 {
		t.Fatalf("Iterations() = %d after Run, want 6", e.Iterations())
	}
	e.Reset()
	if e.Iterations() != 0 {
		t.Fatalf("Iterations() = %d after Reset, want 0", e.Iterations())
	}
	second := e.Run().Rank
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("rank[%d] differs between Run and Reset+Run", i)
		}
	}
}

func TestParallelEqualsGatherBitForBit(t *testing.T) {
	// Every output row of the parallel gather is computed by exactly one
	// worker with the serial per-row loop, so the parallel engine must
	// match Gather exactly, for every worker count.
	a := engineTestMatrix(t, 3, 1<<13, 1<<10)
	opt := Options{Seed: 7, Iterations: 8, Dangling: true}
	want, err := Gather(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		opt.Workers = workers
		got, err := Parallel(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Rank {
			if got.Rank[i] != want.Rank[i] {
				t.Fatalf("workers=%d: rank[%d] = %v, Gather %v", workers, i, got.Rank[i], want.Rank[i])
			}
		}
	}
}

func TestEngineIterateZeroAllocs(t *testing.T) {
	a := engineTestMatrix(t, 4, 1<<13, 1<<10)
	serial, err := NewScatterEngine(a, Options{Seed: 1, Dangling: true})
	if err != nil {
		t.Fatal(err)
	}
	serial.Iterate() // warm
	if allocs := testing.AllocsPerRun(50, func() { serial.Iterate() }); allocs != 0 {
		t.Errorf("serial engine Iterate allocates %.1f/op, want 0", allocs)
	}

	gather, err := NewGatherEngine(a, Options{Seed: 1, Tolerance: 1e-30, Iterations: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	gather.Iterate()
	if allocs := testing.AllocsPerRun(50, func() { gather.Iterate() }); allocs != 0 {
		t.Errorf("gather engine Iterate (tolerance mode) allocates %.1f/op, want 0", allocs)
	}
}

func TestParallelEngineIterateZeroAllocs(t *testing.T) {
	a := engineTestMatrix(t, 5, 1<<13, 1<<10)
	pe, err := NewParallelEngine(a, Options{Seed: 1, Workers: 4, Dangling: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	pe.Engine().Iterate() // warm the team
	if allocs := testing.AllocsPerRun(50, func() { pe.Engine().Iterate() }); allocs != 0 {
		t.Errorf("parallel engine Iterate allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkEngineIterate(b *testing.B) {
	a := engineTestMatrix(b, 6, 16<<12, 1<<12)
	e, err := NewScatterEngine(a, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Iterate()
	}
}

func BenchmarkParallelEngineIterate(b *testing.B) {
	a := engineTestMatrix(b, 6, 16<<12, 1<<12)
	pe, err := NewParallelEngine(a, Options{Seed: 1, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer pe.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.Engine().Iterate()
	}
}

// rankHash folds a rank vector's bits into one comparable number.
func rankHash(r []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestEngineRanksGolden pins the rank bits of every engine under every
// dangling policy to hashes taken before the gather kernel was rewritten,
// the dangling mask made lazy and the products explicitly rounded: none
// of the three may move a bit on amd64, and on FMA architectures the
// roundings are what keep these hashes true.  (Scatter and gather share
// a hash: both add a column's products in ascending row order.)
func TestEngineRanksGolden(t *testing.T) {
	a := filteredMatrix(t, 24, 1024, 6000)
	v := make([]float64, a.N)
	for i := range v {
		v[i] = float64(i+1) * 2 / float64(a.N*(a.N+1))
	}
	for _, tc := range []struct {
		name string
		opt  Options
		want uint64
	}{
		{"ignore", Options{Seed: 5}, 0xf82be4703cf6f273},
		{"uniform", Options{Seed: 5, Policy: DanglingUniform}, 0x9ca3507ecbac30c3},
		{"uniform, personalized", Options{Seed: 5, Policy: DanglingUniform, Teleport: v}, 0x31cdf2f53610d140},
		{"teleport", Options{Seed: 5, Policy: DanglingTeleport, Teleport: v}, 0x08f3e0bd16d88dd3},
	} {
		tc.opt.Workers = 3
		for engine, run := range map[string]func(*sparse.CSR, Options) (*Result, error){
			"scatter": Scatter, "gather": Gather, "parallel": Parallel,
		} {
			res, err := run(a, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := rankHash(res.Rank); got != tc.want {
				t.Errorf("%s, %s: rank hash %#x, want %#x", tc.name, engine, got, tc.want)
			}
		}
	}
}

// TestIgnorePolicyBuildsNoDanglingMask: under the benchmark's
// DanglingIgnore policy Iterate never reads the dangling mask, so
// constructing an engine must not derive it — no pass over the matrix, no
// N-sized mask or degree vector.  The only N-sized allocations left are
// the engine's two rank vectors.
func TestIgnorePolicyBuildsNoDanglingMask(t *testing.T) {
	a := engineTestMatrix(t, 6, 1<<16, 1<<14)
	at := a.TransposeOrdered()
	vectors := uint64(2 * 8 * a.N)
	constructed := func(opt Options) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewGatherEngineWith(a, at, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The mask is N bytes and the degree vector 8·N; half a mask of slack
	// covers the engine struct and closures.
	if got := constructed(Options{}); got > vectors+uint64(a.N)/2 {
		t.Errorf("DanglingIgnore construction allocated %d bytes, want only the two rank vectors (%d)", got, vectors)
	}
	if got := constructed(Options{Policy: DanglingUniform}); got < vectors+uint64(a.N) {
		t.Errorf("DanglingUniform construction allocated %d bytes: no mask was built, the measurement is blind", got)
	}
}

// TestWorkersDefaultIsGOMAXPROCS pins Options.Workers <= 0 to its
// documented meaning — the team is as wide as GOMAXPROCS, serial on one
// processor — and the ranks to the serial gather's bits whatever the
// default resolves to (TestParallelEqualsGatherBitForBit covers the
// explicit counts).
func TestWorkersDefaultIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	a := engineTestMatrix(t, 3, 1<<13, 1<<10)
	opt := Options{Seed: 7, Iterations: 8, Dangling: true}
	want, err := Gather(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if w0, wNeg, w5 := workersOr(0), workersOr(-1), workersOr(5); w0 != procs || wNeg != procs || w5 != 5 {
			t.Fatalf("GOMAXPROCS=%d: workersOr(0, -1, 5) = %d, %d, %d", procs, w0, wNeg, w5)
		}
		pe, err := NewParallelEngine(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		if (pe.team == nil) != (procs == 1) {
			t.Errorf("GOMAXPROCS=%d: worker team present = %v", procs, pe.team != nil)
		}
		got := pe.Run()
		pe.Close()
		for i := range want.Rank {
			if got.Rank[i] != want.Rank[i] {
				t.Fatalf("GOMAXPROCS=%d: rank[%d] = %v, Gather %v", procs, i, got.Rank[i], want.Rank[i])
			}
		}
	}
}

package pagerank

// Tests for the reusable iteration engine: equivalence with the one-shot
// entry points, Reset determinism, and the zero-allocation steady-state
// pins the hybrid runtime's allocation budget rests on (DESIGN.md §7).

import (
	"math"
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
	at, pristine := a.Transpose(), a.Transpose()
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

package pagerank

import (
	"math"
	"testing"

	"repro/internal/edge"
	"repro/internal/graphblas"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// filteredMatrix builds a small kernel-2-style normalized adjacency matrix:
// random edges, super-node and leaf columns zeroed, rows normalized.
func filteredMatrix(t testing.TB, seed uint64, n int, m int) *sparse.CSR {
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
	din := a.InDegrees()
	maxDin := sparse.MaxValue(din)
	mask := make([]bool, n)
	for i, d := range din {
		if d == maxDin || d == 1 {
			mask[i] = true
		}
	}
	a.ZeroColumns(mask)
	a.Compact()
	a.ScaleRows(a.OutDegrees())
	return a
}

func TestInitVectorNormalized(t *testing.T) {
	r := InitVector(1000, 7)
	if math.Abs(sparse.Sum(r)-1) > 1e-12 {
		t.Errorf("initial vector sums to %v, want 1", sparse.Sum(r))
	}
	for i, x := range r {
		if x < 0 || x > 1 {
			t.Fatalf("r[%d] = %v out of [0,1]", i, x)
		}
	}
	r2 := InitVector(1000, 7)
	for i := range r {
		if r[i] != r2[i] {
			t.Fatal("InitVector not deterministic per seed")
		}
	}
	r3 := InitVector(1000, 8)
	if r[0] == r3[0] && r[1] == r3[1] && r[2] == r3[2] {
		t.Error("InitVector ignores seed")
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Damping: 1.5},
		{Damping: -0.1},
		{Iterations: -3},
		{Tolerance: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	a := filteredMatrix(t, 1, 64, 600)
	res, err := Scatter(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != DefaultIterations {
		t.Errorf("ran %d iterations, want %d", res.Iterations, DefaultIterations)
	}
	if len(res.Rank) != 64 {
		t.Errorf("rank length %d", len(res.Rank))
	}
}

func TestEnginesAgree(t *testing.T) {
	a := filteredMatrix(t, 2, 128, 2000)
	opt := Options{Seed: 5}
	ref, err := Scatter(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	gat, err := Gather(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runParallel(a, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, vals := tuplesFromCSR(a)
	gm, err := graphblas.Build(a.N, rows, cols, vals, graphblas.PlusFloat64.Op)
	if err != nil {
		t.Fatal(err)
	}
	gbe, err := NewGraphBLASEngine(gm, opt)
	if err != nil {
		t.Fatal(err)
	}
	gb := gbe.Run()
	for name, r := range map[string][]float64{"gather": gat.Rank, "parallel": par.Rank, "graphblas": gb.Rank} {
		for i := range ref.Rank {
			if math.Abs(r[i]-ref.Rank[i]) > 1e-9 {
				t.Fatalf("%s engine differs from scatter at %d: %v vs %v", name, i, r[i], ref.Rank[i])
			}
		}
	}
}

func tuplesFromCSR(a *sparse.CSR) (rows, cols []int, vals []float64) {
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			rows = append(rows, i)
			cols = append(cols, int(a.Col[k]))
			vals = append(vals, a.Val[k])
		}
	}
	return
}

func TestMatchesDenseEigenvector(t *testing.T) {
	// The paper's validation: after enough iterations the normalized rank
	// vector equals the dominant eigenvector of c·Aᵀ + (1-c)/N.
	a := filteredMatrix(t, 3, 64, 800)
	res, err := Scatter(a, Options{Iterations: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := CompareWithEigen(res.Rank, a, EigenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-8 {
		t.Errorf("rank vector differs from dominant eigenvector by %v", diff)
	}
}

func TestTwentyIterationsCloseToEigen(t *testing.T) {
	// Even the benchmark's fixed 20 iterations should land near the
	// eigenvector (c^20 ≈ 0.04 residual contraction).
	a := filteredMatrix(t, 4, 32, 400)
	res, err := Scatter(a, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := CompareWithEigen(res.Rank, a, EigenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff > 0.05 {
		t.Errorf("20-iteration result differs from eigenvector by %v", diff)
	}
}

func TestDanglingPreservesMass(t *testing.T) {
	// With the dangling correction the iteration is fully stochastic:
	// sum(r) must stay 1 every iteration.
	a := filteredMatrix(t, 5, 64, 500)
	res, err := Scatter(a, Options{Dangling: true, Iterations: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s := sparse.Sum(res.Rank); math.Abs(s-1) > 1e-9 {
		t.Errorf("with dangling correction sum(r) = %v, want 1", s)
	}
}

func TestWithoutDanglingMassLeaks(t *testing.T) {
	// The paper's definition omits the correction, so rank mass leaks
	// through dangling/zeroed vertices: sum(r) < 1 after iterations
	// whenever dangling rows exist.
	a := filteredMatrix(t, 6, 64, 500)
	dangling := false
	for i, d := range a.OutDegrees() {
		_ = i
		if d == 0 {
			dangling = true
			break
		}
	}
	if !dangling {
		t.Skip("random graph has no dangling rows")
	}
	res, err := Scatter(a, Options{Iterations: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s := sparse.Sum(res.Rank); s >= 1 {
		t.Errorf("sum(r) = %v, expected mass leak < 1 without dangling correction", s)
	}
}

func TestToleranceStopsEarly(t *testing.T) {
	a := filteredMatrix(t, 7, 64, 800)
	res, err := Scatter(a, Options{Iterations: 500, Tolerance: 1e-10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 500 {
		t.Errorf("tolerance mode did not converge early (%d iterations)", res.Iterations)
	}
	if res.FinalDiff >= 1e-10 {
		t.Errorf("FinalDiff = %v, want < tolerance", res.FinalDiff)
	}
}

func TestRankIsNonNegative(t *testing.T) {
	a := filteredMatrix(t, 8, 128, 1500)
	res, err := Gather(a, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range res.Rank {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("rank[%d] = %v", i, x)
		}
	}
}

func TestHubReceivesTopRank(t *testing.T) {
	// Star graph: all vertices point at vertex 0; vertex 0 must win.
	l := edge.NewList(10)
	for u := uint64(1); u < 10; u++ {
		l.Append(u, 0)
	}
	a, err := sparse.FromEdges(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	a.ScaleRows(a.OutDegrees())
	res, err := Scatter(a, Options{Iterations: 50, Seed: 1, Dangling: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if res.Rank[i] >= res.Rank[0] {
			t.Fatalf("vertex %d rank %v >= hub rank %v", i, res.Rank[i], res.Rank[0])
		}
	}
}

func TestCycleGraphUniformRank(t *testing.T) {
	// Directed cycle: perfect symmetry forces equal ranks.
	const n = 8
	l := edge.NewList(n)
	for u := uint64(0); u < n; u++ {
		l.Append(u, (u+1)%n)
	}
	a, _ := sparse.FromEdges(l, n)
	a.ScaleRows(a.OutDegrees())
	res, err := Scatter(a, Options{Iterations: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.Sum(res.Rank) / n
	for i, x := range res.Rank {
		if math.Abs(x-want) > 1e-9 {
			t.Fatalf("cycle rank[%d] = %v, want %v", i, x, want)
		}
	}
}

func TestEigenRejectsHugeMatrix(t *testing.T) {
	big := &sparse.CSR{N: 5000, RowPtr: make([]int64, 5001)}
	if _, err := DominantEigenvector(big, EigenOptions{}); err == nil {
		t.Error("DominantEigenvector accepted N=5000")
	}
}

func TestCompareWithEigenZeroVector(t *testing.T) {
	a := filteredMatrix(t, 9, 16, 100)
	if _, err := CompareWithEigen(make([]float64, 16), a, EigenOptions{}); err == nil {
		t.Error("zero rank vector accepted")
	}
}

func TestInvalidOptionsPropagate(t *testing.T) {
	a := filteredMatrix(t, 10, 16, 100)
	if _, err := Scatter(a, Options{Damping: 2}); err == nil {
		t.Error("Scatter accepted damping 2")
	}
	if _, err := Gather(a, Options{Damping: 2}); err == nil {
		t.Error("Gather accepted damping 2")
	}
	if _, err := NewParallelEngine(a, nil, 2, Options{Damping: 2}); err == nil {
		t.Error("NewParallelEngine accepted damping 2")
	}
}

func BenchmarkScatter20Iters(b *testing.B) {
	a := filteredMatrix(b, 1, 1<<12, 16<<12)
	b.SetBytes(int64(20 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scatter(a, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGather20Iters(b *testing.B) {
	a := filteredMatrix(b, 1, 1<<12, 16<<12)
	b.SetBytes(int64(20 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Gather(a, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

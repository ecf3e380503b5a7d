package pagerank

// Tests for the reusable iteration engine: equivalence with the one-shot
// entry points, Reset determinism, and the zero-allocation steady-state
// pins the hybrid runtime's allocation budget rests on (DESIGN.md §7).

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
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
// that transpose for themselves, serial or on a team, and leave the
// shared copy untouched.
func TestGatherEngineWithSharedTranspose(t *testing.T) {
	a := engineTestMatrix(t, 2, 1<<12, 1<<9)
	at, pristine := a.TransposeOrdered(), a.TransposeOrdered()
	opt := Options{Seed: 3, Dangling: true, Iterations: 7}
	own, err := NewGatherEngine(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := own.Run().Rank
	for i := 0; i < 3; i++ {
		workers := 1 + i%2
		pe, err := NewParallelEngine(a, at, workers, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := pe.Run().Rank
		pe.Close()
		for j, v := range got {
			if v != want[j] {
				t.Fatalf("engine %d (%d workers) over the shared transpose differs at %d: %v vs %v", i, workers, j, v, want[j])
			}
		}
	}
	if !slices.Equal(at.Col, pristine.Col) || !slices.Equal(at.Scale, pristine.Scale) ||
		!slices.Equal(at.Extra, pristine.Extra) || !slices.Equal(at.Src, pristine.Src) {
		t.Fatal("shared transpose's entries or term table modified")
	}
	if !slices.Equal(at.Label, pristine.Label) || !slices.Equal(at.Ptr, pristine.Ptr) {
		t.Fatal("shared transpose relabelled")
	}
}

// TestLabelledEngineEqualsVertexOrder holds the gather engines, whose
// vectors live in the operand's position labels, to the scatter engine,
// whose vectors are in vertex order: the same bits from Rank after every
// Iterate, from every Iterate's returned difference, and from Run, over
// workers {1, 2, 3, 8} × dangling policy × uniform or personalized
// teleport × seeded or given initial vector × fixed count or tolerance,
// on a fresh transpose and on one shared transpose (the matrix cache's
// hit) reused by every engine.
func TestLabelledEngineEqualsVertexOrder(t *testing.T) {
	a := engineTestMatrix(t, 4, 1<<10, 1<<9) // ~1/8 of the rows dangling
	n := a.N
	if !slices.Contains(a.OutDegrees(), 0) {
		t.Fatal("no dangling row: the dangling policies test nothing")
	}
	tele := make([]float64, n) // teleport to every third vertex
	for i := 0; i < n; i += 3 {
		tele[i] = 1
	}
	sparse.Scale(tele, 1/sparse.Sum(tele))
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(1+i%7) / float64(4*n)
	}
	shared := a.TransposeOrdered()
	type engine struct {
		name string
		eng  *Engine
		done func()
	}
	for _, policy := range []DanglingPolicy{DanglingIgnore, DanglingUniform, DanglingTeleport} {
		for _, teleport := range [][]float64{nil, tele} {
			for _, init := range [][]float64{nil, initial} {
				for _, tol := range []float64{0, 1e-7} {
					opt := Options{Seed: 6, Iterations: 12, Policy: policy, Teleport: teleport, InitialRank: init, Tolerance: tol}
					what := fmt.Sprintf("policy %v, teleport %v, initial %v, tolerance %v", policy, teleport != nil, init != nil, tol)
					ref, err := NewScatterEngine(a, opt)
					if err != nil {
						t.Fatal(err)
					}
					want := ref.Run()
					wantRank := append([]float64(nil), want.Rank...)
					gather, err := NewGatherEngine(a, opt)
					if err != nil {
						t.Fatal(err)
					}
					engines := []engine{{"gather", gather, func() {}}}
					for _, workers := range []int{1, 2, 3, 8} {
						for _, at := range []*sparse.Ordered{nil, shared} {
							pe, err := NewParallelEngine(a, at, workers, opt)
							if err != nil {
								t.Fatal(err)
							}
							engines = append(engines, engine{fmt.Sprintf("%d workers, shared %v", workers, at != nil), pe.Engine(), pe.Close})
						}
					}
					for _, e := range engines {
						got := e.eng.Run()
						if got.Iterations != want.Iterations || math.Float64bits(got.FinalDiff) != math.Float64bits(want.FinalDiff) {
							t.Fatalf("%s, %s: %d iterations, diff %v; scatter %d, %v", what, e.name, got.Iterations, got.FinalDiff, want.Iterations, want.FinalDiff)
						}
						if !slices.Equal(got.Rank, wantRank) {
							t.Fatalf("%s, %s: Run's rank differs from the scatter engine's", what, e.name)
						}
						e.eng.Reset()
						ref.Reset()
						for it := 0; it < want.Iterations; it++ {
							if d, dr := e.eng.Iterate(), ref.Iterate(); math.Float64bits(d) != math.Float64bits(dr) {
								t.Fatalf("%s, %s: iteration %d diff %v, scatter %v", what, e.name, it+1, d, dr)
							}
							if !slices.Equal(e.eng.Rank(), ref.Rank()) {
								t.Fatalf("%s, %s: Rank after iteration %d differs from the scatter engine's", what, e.name, it+1)
							}
						}
						e.done()
					}
				}
			}
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
		got, err := runParallel(a, workers, opt)
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
	pe, err := NewParallelEngine(a, nil, 4, Options{Seed: 1, Dangling: true})
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
	pe, err := NewParallelEngine(a, nil, 4, Options{Seed: 1})
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
		for engine, run := range map[string]func(*sparse.CSR, Options) (*Result, error){
			"scatter": Scatter, "gather": Gather,
			"parallel": func(a *sparse.CSR, opt Options) (*Result, error) { return runParallel(a, 3, opt) },
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
// the engine's two rank vectors and the team's term vector.
func TestIgnorePolicyBuildsNoDanglingMask(t *testing.T) {
	a := engineTestMatrix(t, 6, 1<<16, 1<<14)
	at := a.TransposeOrdered()
	// The team's term vector is a large allocation: whole 8 KiB pages.
	table := (8*at.Slots() + 8191) / 8192 * 8192
	vectors := uint64(2*8*a.N + table)
	constructed := func(opt Options) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewParallelEngine(a, at, 1, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The mask is N bytes and the degree vector 8·N; half a mask of slack
	// covers the engine struct and closures.
	if got := constructed(Options{}); got > vectors+uint64(a.N)/2 {
		t.Errorf("DanglingIgnore construction allocated %d bytes, want only the rank vectors and term vector (%d)", got, vectors)
	}
	if got := constructed(Options{Policy: DanglingUniform}); got < vectors+uint64(a.N) {
		t.Errorf("DanglingUniform construction allocated %d bytes: no mask was built, the measurement is blind", got)
	}
}

// TestWorkersDefaultIsGOMAXPROCS pins a team width <= 0 to its
// documented meaning — the team is as wide as GOMAXPROCS, one worker on
// one processor, while an explicit width ignores GOMAXPROCS — and the ranks
// to the serial gather's bits whatever the default resolves to
// (TestParallelEqualsGatherBitForBit covers the explicit counts).
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
		for _, workers := range []int{0, -1, 5} {
			pe, err := NewParallelEngine(a, nil, workers, opt)
			if err != nil {
				t.Fatal(err)
			}
			width := procs
			if workers > 0 {
				width = workers
			}
			if got := pe.team.Workers(); got != width {
				t.Errorf("GOMAXPROCS=%d, workers=%d: team %d wide, want %d", procs, workers, got, width)
			}
			got := pe.Run()
			pe.Close()
			for i := range want.Rank {
				if got.Rank[i] != want.Rank[i] {
					t.Fatalf("GOMAXPROCS=%d, workers=%d: rank[%d] = %v, Gather %v", procs, workers, i, got.Rank[i], want.Rank[i])
				}
			}
		}
	}
}

// runParallel is one run of a parallel engine workers wide.
func runParallel(a *sparse.CSR, workers int, opt Options) (*Result, error) {
	pe, err := NewParallelEngine(a, nil, workers, opt)
	if err != nil {
		return nil, err
	}
	defer pe.Close()
	return pe.Run(), nil
}

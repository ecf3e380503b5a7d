package serve_test

// The matrix cache's service-level contract tests: the mixed-variant
// singleflight property (one filler serves every variant), the
// warm-vs-cold bit-for-bit sweep across every variant, processor count
// and execution mode, and the cancellation-mid-fill no-poisoning
// guarantee.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// assertBitEqualRanks fails unless the two rank vectors are identical
// bit for bit.
func assertBitEqualRanks(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("%s: rank lengths %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: rank[%d] = %v != %v (not bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestMixedVariantSingleflight pins the cache's exchange across
// variants: N concurrent runs of one graph through different variants
// elect exactly one filler, the other N-1 join its in-flight matrix
// fill, and every run reproduces its own variant's cold ranks bit for
// bit — the matrix is canonical, so whoever fills it, it is the same.
func TestMixedVariantSingleflight(t *testing.T) {
	variants := []string{"csr", "coo", "columnar", "graphblas", "extsort", "dist"}
	n := len(variants)
	svc := serve.New(serve.WithMaxConcurrent(n))
	defer svc.Close()
	ctx := context.Background()
	results := make([]*pipeline.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func(i int, v string) {
			defer wg.Done()
			results[i], errs[i] = svc.Run(ctx, runCfg(v))
		}(i, v)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", variants[i], err)
		}
	}
	st := svc.Stats()
	if st.CacheMatrix.Misses != 1 || st.CacheMatrix.Hits != uint64(n-1) {
		t.Fatalf("matrix cache = %+v, want 1 miss / %d hits", st.CacheMatrix, n-1)
	}
	for i, v := range variants {
		cold, err := pipeline.ExecuteContext(ctx, runCfg(v))
		if err != nil {
			t.Fatal(err)
		}
		assertBitEqualRanks(t, v+" mixed-variant run", cold.Rank, results[i].Rank)
	}
}

// TestWarmVsColdBitForBitSerialVariants pins the headline correctness
// property for the serial variants: a warm run reproduces the cold
// run's ranks bit for bit and performs zero kernel-0/1/2 work.
func TestWarmVsColdBitForBitSerialVariants(t *testing.T) {
	for _, variant := range []string{"csr", "coo", "columnar", "graphblas", "extsort"} {
		svc := serve.New()
		cfg := runCfg(variant)
		ctx := context.Background()
		cold, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s cold: %v", variant, err)
		}
		warm, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s warm: %v", variant, err)
		}
		if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
			t.Fatalf("%s warm run: Cache = %+v, want a matrix hit", variant, warm.Cache)
		}
		if len(warm.Kernels) != 1 || warm.Kernels[0].Kernel != pipeline.K3PageRank {
			t.Fatalf("%s warm run executed %v, want [K3]", variant, warm.Kernels)
		}
		if warm.NNZ != cold.NNZ || warm.MatrixMass != cold.MatrixMass {
			t.Fatalf("%s: warm NNZ/mass %d/%v != cold %d/%v", variant, warm.NNZ, warm.MatrixMass, cold.NNZ, cold.MatrixMass)
		}
		assertBitEqualRanks(t, variant+" warm-vs-cold", cold.Rank, warm.Rank)
		svc.Close()
	}
}

// TestWarmTeamHitEqualsColdSerialRun: a warm csr hit whose kernel 3 runs
// on a three-worker gather team reproduces the cold one-worker run that
// filled the cache, bit for bit.
func TestWarmTeamHitEqualsColdSerialRun(t *testing.T) {
	svc := serve.New()
	defer svc.Close()
	ctx := context.Background()
	cfg := runCfg("csr")
	cfg.Workers = 1
	cold, err := svc.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	warm, err := svc.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
		t.Fatalf("warm run: Cache = %+v, want a matrix hit", warm.Cache)
	}
	assertBitEqualRanks(t, "warm Workers: 3 vs cold Workers: 1", cold.Rank, warm.Rank)
}

// TestLabelledEngineOnCacheHitEqualsVertexOrder holds csr's kernel 3 —
// the gather engine, in the operand's position labels — to coo's scatter
// engine in vertex order, bit for bit, on a cold run and on matrix-cache
// hits at workers {1, 2, 3, 8}, over dangling policy × teleport × initial
// vector × tolerance.
func TestLabelledEngineOnCacheHitEqualsVertexOrder(t *testing.T) {
	n := 1 << runCfg("csr").Scale
	tele, initial := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i += 3 {
		tele[i] = 1 / float64((n+2)/3)
	}
	for i := range initial {
		initial[i] = float64(1+i%5) / float64(3*n)
	}
	ctx := context.Background()
	for _, policy := range []pagerank.DanglingPolicy{pagerank.DanglingIgnore, pagerank.DanglingTeleport} {
		for _, teleport := range [][]float64{nil, tele} {
			for _, init := range [][]float64{nil, initial} {
				for _, tol := range []float64{0, 1e-9} {
					opt := pagerank.Options{Policy: policy, Teleport: teleport, InitialRank: init, Tolerance: tol, Iterations: 30}
					what := fmt.Sprintf("policy %v, teleport %v, initial %v, tolerance %v", policy, teleport != nil, init != nil, tol)
					svc := serve.New()
					run := func(variant string, workers int) *pipeline.Result {
						cfg := runCfg(variant)
						cfg.Workers, cfg.PageRank = workers, opt
						res, err := svc.Run(ctx, cfg)
						if err != nil {
							t.Fatalf("%s, %s: %v", what, variant, err)
						}
						return res
					}
					cold := run("csr", 2)
					if cold.Cache == nil || cold.Cache.Matrix.Hits != 0 {
						t.Fatalf("%s: cold run: Cache = %+v, want a miss", what, cold.Cache)
					}
					want := run("coo", 1).Rank
					assertBitEqualRanks(t, what+": cold csr vs coo", want, cold.Rank)
					for _, workers := range []int{1, 2, 3, 8} {
						warm := run("csr", workers)
						if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
							t.Fatalf("%s: warm run: Cache = %+v, want a matrix hit", what, warm.Cache)
						}
						assertBitEqualRanks(t, fmt.Sprintf("%s: warm csr at %d workers vs coo", what, workers), want, warm.Rank)
					}
					svc.Close()
				}
			}
		}
	}
}

// TestWarmVsColdBitForBitDistSweep extends the warm-vs-cold pin across
// the distributed variants' whole parameter grid: processor counts
// p ∈ {1, 2, 3, 5, 8}, kernel 1 in memory and out of core.  The warm run consumes
// the cached canonical matrix, row-blocks it across its ranks, and
// must still agree with its own cold run bit for bit.
func TestWarmVsColdBitForBitDistSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full dist grid in -short mode")
	}
	for _, variant := range []string{"dist", "distext"} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			svc := serve.New()
			cfg := runCfg(variant)
			cfg.Workers = p
			ctx := context.Background()
			cold, err := svc.Run(ctx, cfg)
			if err != nil {
				t.Fatalf("%s p=%d cold: %v", variant, p, err)
			}
			warm, err := svc.Run(ctx, cfg)
			if err != nil {
				t.Fatalf("%s p=%d warm: %v", variant, p, err)
			}
			if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
				t.Fatalf("%s p=%d warm: Cache = %+v, want a matrix hit", variant, p, warm.Cache)
			}
			if len(warm.Kernels) != 1 || warm.Kernels[0].Kernel != pipeline.K3PageRank {
				t.Fatalf("%s p=%d warm executed %v, want [K3]", variant, p, warm.Kernels)
			}
			assertBitEqualRanks(t, variant+" dist-grid warm-vs-cold", cold.Rank, warm.Rank)
			svc.Close()
		}
	}
}

// TestWarmVsColdBitForBitSocketMode extends the warm-vs-cold pin to the
// socket execution mode: the warm run hands the cached canonical matrix
// to worker *processes* over the wire and must still agree with its own
// cold run bit for bit.  Kept to two processor counts — each run spawns
// p OS processes — the full p grid for sockets lives in
// internal/dist/socket_test.go.
func TestWarmVsColdBitForBitSocketMode(t *testing.T) {
	if testing.Short() {
		t.Skip("socket warm-vs-cold spawns worker processes; skipped in -short mode")
	}
	for _, p := range []int{1, 3} {
		svc := serve.New()
		cfg := runCfg("distgo")
		cfg.Workers = p
		cfg.DistMode = "socket"
		ctx := context.Background()
		cold, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("p=%d cold: %v", p, err)
		}
		warm, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("p=%d warm: %v", p, err)
		}
		if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
			t.Fatalf("p=%d warm: Cache = %+v, want a matrix hit", p, warm.Cache)
		}
		if len(warm.Kernels) != 1 || warm.Kernels[0].Kernel != pipeline.K3PageRank {
			t.Fatalf("p=%d warm executed %v, want [K3]", p, warm.Kernels)
		}
		assertBitEqualRanks(t, "socket warm-vs-cold", cold.Rank, warm.Rank)
		svc.Close()
	}
}

// TestWarmRunEmitsNoKernel012Events pins the "zero K0-K2 work" claim at
// the event level: a warm streaming run emits a matrix cache-hit and
// kernel events for kernel 3 only.
func TestWarmRunEmitsNoKernel012Events(t *testing.T) {
	svc := serve.New()
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Run(ctx, runCfg("csr")); err != nil {
		t.Fatal(err)
	}
	sawHit := false
	for ev := range svc.RunStream(ctx, runCfg("csr")) {
		switch ev.Kind {
		case serve.EventCacheHit:
			if ev.Kernel != pipeline.K2Filter {
				t.Fatalf("cache hit at stage %v, want K2Filter", ev.Kernel)
			}
			sawHit = true
		case serve.EventCacheMiss:
			t.Fatalf("warm run emitted a cache miss at %v", ev.Kernel)
		case serve.EventKernelStart, serve.EventKernelEnd:
			if ev.Kernel != pipeline.K3PageRank {
				t.Fatalf("warm run emitted a kernel event for %v", ev.Kernel)
			}
		case serve.EventRunEnd:
			if ev.Err != nil {
				t.Fatal(ev.Err)
			}
		}
	}
	if !sawHit {
		t.Fatal("warm run emitted no cache-hit event")
	}
}

// TestCancelMidFillDoesNotPoisonSingleflight pins the no-poisoning
// guarantee end to end: run A wins the matrix fill and is cancelled
// while the fill is in flight; run B, already waiting on that fill,
// must recover — retry, compute the artifact itself, and finish with
// the exact ranks an undisturbed service produces.
func TestCancelMidFillDoesNotPoisonSingleflight(t *testing.T) {
	svc := serve.New(serve.WithMaxConcurrent(2))
	defer svc.Close()
	cfg := runCfg("csr")

	actx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reachedMiss := make(chan struct{})
	release := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		_, err := svc.Run(actx, cfg, serve.WithProgress(func(ev pipeline.Event) {
			if ev.Kind == pipeline.EventCacheMiss && ev.Kernel == pipeline.K2Filter {
				close(reachedMiss)
				<-release
			}
		}))
		aDone <- err
	}()
	<-reachedMiss // A holds the in-flight matrix fill

	bDone := make(chan struct{})
	var bRes *pipeline.Result
	var bErr error
	go func() {
		defer close(bDone)
		bRes, bErr = svc.Run(context.Background(), cfg)
	}()

	cancel()       // A's ctx dies while its fill is in flight
	close(release) // let A's progress hook return; A aborts at the next check
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("run A: want context.Canceled, got %v", err)
	}
	<-bDone
	if bErr != nil {
		t.Fatalf("run B after cancelled fill: %v", bErr)
	}

	ref := serve.New()
	defer ref.Close()
	want, err := ref.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqualRanks(t, "post-cancel recovery", want.Rank, bRes.Rank)

	// The key is clean: a third run either hits the artifact B deposited
	// or recomputes it, but never sees a poisoned entry.
	again, err := svc.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqualRanks(t, "post-recovery warm run", want.Rank, again.Rank)
	if again.Cache == nil || again.Cache.Matrix.Hits != 1 {
		t.Fatalf("post-recovery run should hit the recovered matrix: %+v", again.Cache)
	}
}

package serve_test

// The service layer's contract tests: the singleflight property (N
// concurrent same-graph runs build the kernel-2 matrix exactly once and
// agree bit for bit), prompt cancellation mid-kernel-3 in both distributed
// execution modes with no goroutine leaks, the bounded admission queue,
// and the streaming event protocol.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/vfs"
)

func runCfg(variant string) pipeline.Config {
	cfg := pipeline.Config{Scale: 8, EdgeFactor: 8, Seed: 11, Variant: variant, KeepRank: true}
	if variant == "distext" {
		// The out-of-core distributed configuration: dist with kernel 1
		// spilling M/8-edge runs.
		cfg.Variant, cfg.RunEdges = "dist", int(cfg.M()/8)
	}
	return cfg
}

// TestSingleflightConcurrentRuns is the cache property test: N
// concurrent runs of the same (generator, scale, edgeFactor, seed)
// share the kernel-2 matrix — computed exactly once (one miss, N-1
// hits) — and all N return bit-identical results.
func TestSingleflightConcurrentRuns(t *testing.T) {
	const n = 8
	svc := serve.New(serve.WithMaxConcurrent(n))
	defer svc.Close()
	results := make([]*pipeline.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Run(context.Background(), runCfg("csr"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.CacheMatrix.Misses != 1 || st.CacheMatrix.Hits != n-1 {
		t.Fatalf("want exactly 1 matrix build (%d hits), got %d misses / %d hits",
			n-1, st.CacheMatrix.Misses, st.CacheMatrix.Hits)
	}
	ref := results[0]
	warm := 0
	for i, res := range results {
		if res.NNZ != ref.NNZ {
			t.Fatalf("run %d: NNZ %d != %d", i, res.NNZ, ref.NNZ)
		}
		if len(res.Rank) != len(ref.Rank) {
			t.Fatalf("run %d: rank length differs", i)
		}
		for j := range res.Rank {
			if res.Rank[j] != ref.Rank[j] {
				t.Fatalf("run %d: rank differs at %d", i, j)
			}
		}
		if res.Cache == nil || res.Cache.Matrix.Hits+res.Cache.Matrix.Misses != 1 {
			t.Fatalf("run %d: matrix stage not metered: %+v", i, res.Cache)
		}
		if res.Cache.Matrix.Hits == 1 {
			warm++
		}
	}
	if warm != n-1 {
		t.Fatalf("want %d matrix-warm runs, got %d", n-1, warm)
	}
}

// TestRunMatchesOneShot pins that a service run is bit-for-bit the
// one-shot pipeline: caching changes who generates, never what.
func TestRunMatchesOneShot(t *testing.T) {
	svc := serve.New()
	defer svc.Close()
	for _, variant := range []string{"csr", "dist", "distgo"} {
		got, err := svc.Run(context.Background(), runCfg(variant))
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipeline.ExecuteContext(context.Background(), runCfg(variant))
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ != want.NNZ || len(got.Rank) != len(want.Rank) {
			t.Fatalf("%s: shape diverges from one-shot", variant)
		}
		for i := range got.Rank {
			if got.Rank[i] != want.Rank[i] {
				t.Fatalf("%s: rank differs at %d", variant, i)
			}
		}
	}
}

// TestAdmissionBound pins the bounded run queue: with MaxConcurrent 1,
// two overlapping runs must never execute simultaneously.
func TestAdmissionBound(t *testing.T) {
	svc := serve.New(serve.WithMaxConcurrent(1))
	defer svc.Close()
	var active, maxActive int32
	observe := serve.WithProgress(func(ev pipeline.Event) {
		if ev.Kind != pipeline.EventKernelStart {
			return
		}
		cur := atomic.AddInt32(&active, 1)
		for {
			m := atomic.LoadInt32(&maxActive)
			if cur <= m || atomic.CompareAndSwapInt32(&maxActive, m, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond) // widen the overlap window
		atomic.AddInt32(&active, -1)
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Run(context.Background(), runCfg("csr"), observe); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if m := atomic.LoadInt32(&maxActive); m != 1 {
		t.Fatalf("admission bound violated: %d concurrent kernels observed", m)
	}
}

// TestRunStreamEvents pins the streaming protocol: run-started first,
// balanced kernel start/end pairs in kernel order, exactly one iteration
// event per PageRank iteration, and a final run-end with the Result.
func TestRunStreamEvents(t *testing.T) {
	svc := serve.New()
	defer svc.Close()
	var kinds []serve.EventKind
	var kernels []pipeline.Kernel
	iters := 0
	var final serve.Event
	for ev := range svc.RunStream(context.Background(), runCfg("csr")) {
		kinds = append(kinds, ev.Kind)
		switch ev.Kind {
		case serve.EventKernelEnd:
			kernels = append(kernels, ev.Kernel)
			if ev.KernelResult == nil {
				t.Fatal("kernel-end without KernelResult")
			}
		case serve.EventIteration:
			iters++
		case serve.EventRunEnd:
			final = ev
		}
	}
	if len(kinds) == 0 || kinds[0] != serve.EventRunStarted {
		t.Fatalf("want run-started first, got %v", kinds)
	}
	if kinds[len(kinds)-1] != serve.EventRunEnd {
		t.Fatal("want run-end last")
	}
	wantKernels := []pipeline.Kernel{pipeline.K0Generate, pipeline.K1Sort, pipeline.K2Filter, pipeline.K3PageRank}
	if len(kernels) != len(wantKernels) {
		t.Fatalf("want %d kernel-end events, got %d", len(wantKernels), len(kernels))
	}
	for i, k := range wantKernels {
		if kernels[i] != k {
			t.Fatalf("kernel-end %d: want %v, got %v", i, k, kernels[i])
		}
	}
	if iters != pagerank.DefaultIterations {
		t.Fatalf("want %d iteration events, got %d", pagerank.DefaultIterations, iters)
	}
	if final.Err != nil || final.Result == nil || final.Result.NNZ == 0 {
		t.Fatalf("bad final event: %+v", final)
	}
}

// waitForGoroutines polls until the live goroutine count returns to at
// most want.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: have %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidKernel3 is the redesign's cancellation acceptance test:
// a context cancelled three iterations into a huge kernel 3 returns
// context.Canceled promptly in the serial engines and in both
// distributed execution modes, leaking nothing.
func TestCancelMidKernel3(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, variant := range []string{"csr", "dist", "distgo"} {
		svc := serve.New()
		ctx, cancel := context.WithCancel(context.Background())
		cfg := runCfg(variant)
		cfg.PageRank = pagerank.Options{Iterations: 100000}
		start := time.Now()
		_, err := svc.Run(ctx, cfg, serve.WithProgress(func(ev pipeline.Event) {
			if ev.Kind == pipeline.EventIteration && ev.Iteration == 3 {
				cancel()
			}
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", variant, err)
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("%s: cancellation took %v — not prompt", variant, d)
		}
		svc.Close()
	}
	waitForGoroutines(t, base+2)
}

// TestCancelWhileQueued pins that admission waiting respects ctx.
func TestCancelWhileQueued(t *testing.T) {
	svc := serve.New(serve.WithMaxConcurrent(1))
	defer svc.Close()
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	started := make(chan struct{})
	go func() {
		_, _ = svc.Run(context.Background(), runCfg("csr"), serve.WithProgress(func(ev pipeline.Event) {
			if ev.Kind == pipeline.EventKernelStart && ev.Kernel == pipeline.K0Generate {
				close(started)
				<-block
			}
		}))
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := svc.Run(ctx, runCfg("csr")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued run: want DeadlineExceeded, got %v", err)
	}
	release()
}

// TestClosedService pins that Close stops admission.
func TestClosedService(t *testing.T) {
	svc := serve.New()
	svc.Close()
	if _, err := svc.Run(context.Background(), runCfg("csr")); err == nil {
		t.Fatal("closed service: want error")
	}
}

// TestMatrixSingleflightAcrossSpellings pins the cache key: concurrent
// runs that spell one graph differently ("" vs kronecker, 0 vs 16 edges
// per vertex) and write different edge-file formats share one matrix.
func TestMatrixSingleflightAcrossSpellings(t *testing.T) {
	const n = 6
	svc := serve.New(serve.WithMaxConcurrent(n))
	defer svc.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := pipeline.Config{Scale: 8, Seed: 3, Variant: "csr"}
		if i%2 == 1 {
			cfg.Generator, cfg.EdgeFactor, cfg.Format = pipeline.GenKronecker, 16, "packed"
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Run(context.Background(), cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if st := svc.Stats(); st.CacheMatrix.Misses != 1 || st.CacheMatrix.Hits != n-1 || st.CacheEntries != 1 {
		t.Fatalf("want 1 miss / %d hits / 1 entry, got %+v", n-1, st)
	}
}

// TestCacheEviction pins the LRU bound: a one-byte budget keeps only the
// newest matrix resident.
func TestCacheEviction(t *testing.T) {
	svc := serve.New(serve.WithCacheBudget(1))
	defer svc.Close()
	ctx := context.Background()
	for _, seed := range []uint64{1, 2, 1} { // the third run recomputes: seed 1 was evicted
		if _, err := svc.Run(ctx, pipeline.Config{Scale: 7, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.CacheMatrix.Misses != 3 || st.CacheMatrix.Hits != 0 || st.CacheEntries != 1 {
		t.Fatalf("want 3 misses with 1 resident entry, got %+v", st)
	}
}

// TestCacheDisabled pins WithCacheBudget(0): every run generates.
func TestCacheDisabled(t *testing.T) {
	svc := serve.New(serve.WithCacheBudget(0))
	defer svc.Close()
	res, err := svc.Run(context.Background(), runCfg("csr"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != nil {
		t.Fatalf("cache disabled: Cache should be nil, got %+v", res.Cache)
	}
	if st := svc.Stats(); st.CacheMatrix != (serve.StageStats{}) || st.CacheEntries != 0 {
		t.Fatalf("cache disabled: counters moved: %+v", st)
	}
}

// TestRunResumeByKey pins the resume-by-key contract: a run killed
// mid-kernel-3 by an injected rank failure is continued by rerunning
// the same configuration under the same key, landing bit-for-bit on the
// uninterrupted result; a different key starts fresh.
func TestRunResumeByKey(t *testing.T) {
	svc := serve.New()
	defer svc.Close()
	ctx := context.Background()
	cfg := runCfg("distgo")
	cfg.PageRank = pagerank.Options{Seed: 11, Iterations: 10}
	uninterrupted, err := svc.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	kill := cfg
	kill.Checkpoint.Every = 3
	kill.Fault = &dist.FaultPlan{KillRank: 1, AtIteration: 8}
	if _, err := svc.Run(ctx, kill, serve.WithResumeKey("job-1")); !errors.Is(err, dist.ErrFaultInjected) {
		t.Fatalf("killed run: err = %v, want ErrFaultInjected", err)
	}

	resume := cfg
	resume.Checkpoint.Every = 3
	res, err := svc.Run(ctx, resume, serve.WithResumeKey("job-1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil || !res.Checkpoint.Resumed || res.Checkpoint.ResumedFrom != 6 {
		t.Fatalf("resume record %+v, want resumed from 6", res.Checkpoint)
	}
	for i := range uninterrupted.Rank {
		if uninterrupted.Rank[i] != res.Rank[i] {
			t.Fatalf("resumed run diverges at component %d", i)
		}
	}

	// A fresh key shares no state: same config, fresh start.
	other, err := svc.Run(ctx, resume, serve.WithResumeKey("job-2"))
	if err != nil {
		t.Fatal(err)
	}
	if other.Checkpoint != nil && other.Checkpoint.Resumed {
		t.Fatalf("fresh key resumed: %+v", other.Checkpoint)
	}
}

// TestRunStreamCheckpointEvents pins the streaming protocol's two new
// event kinds: saves during the killed run, a restore during the
// resumed one, in execution order.
func TestRunStreamCheckpointEvents(t *testing.T) {
	svc := serve.New()
	defer svc.Close()
	ctx := context.Background()
	cfg := runCfg("distgo")
	cfg.PageRank = pagerank.Options{Seed: 11, Iterations: 10}
	cfg.Checkpoint.Every = 3
	kill := cfg
	kill.Fault = &dist.FaultPlan{KillRank: 0, AtIteration: 7}

	var saves []int
	var runErr error
	for ev := range svc.RunStream(ctx, kill, serve.WithResumeKey("stream-job")) {
		switch ev.Kind {
		case serve.EventCheckpointSaved:
			saves = append(saves, ev.Iteration)
		case serve.EventRunEnd:
			runErr = ev.Err
		}
	}
	if !errors.Is(runErr, dist.ErrFaultInjected) {
		t.Fatalf("killed stream: err = %v", runErr)
	}
	if len(saves) != 2 || saves[0] != 3 || saves[1] != 6 {
		t.Fatalf("saves %v, want [3 6]", saves)
	}

	var restores, iters []int
	for ev := range svc.RunStream(ctx, cfg, serve.WithResumeKey("stream-job")) {
		switch ev.Kind {
		case serve.EventCheckpointRestored:
			restores = append(restores, ev.Iteration)
		case serve.EventIteration:
			iters = append(iters, ev.Iteration)
		case serve.EventRunEnd:
			if ev.Err != nil {
				t.Fatalf("resumed stream: %v", ev.Err)
			}
		}
	}
	if len(restores) != 1 || restores[0] != 6 {
		t.Fatalf("restores %v, want [6]", restores)
	}
	if len(iters) != 4 || iters[0] != 7 || iters[3] != 10 {
		t.Fatalf("resumed iteration events %v, want global [7 8 9 10]", iters)
	}
}

// TestRunStreamForwardsPipelineKinds: RunStream's kinds are pipeline's,
// value and name, and a killed, resumed and cached run brings every one.
func TestRunStreamForwardsPipelineKinds(t *testing.T) {
	kinds := []struct {
		stream, pipe serve.EventKind
		name         string
	}{
		{serve.EventKernelStart, pipeline.EventKernelStart, "kernel-start"},
		{serve.EventKernelEnd, pipeline.EventKernelEnd, "kernel-end"},
		{serve.EventIteration, pipeline.EventIteration, "iteration"},
		{serve.EventCheckpointSaved, pipeline.EventCheckpointSaved, "checkpoint-saved"},
		{serve.EventCheckpointRestored, pipeline.EventCheckpointRestored, "checkpoint-restored"},
		{serve.EventCacheHit, pipeline.EventCacheHit, "cache-hit"},
		{serve.EventCacheMiss, pipeline.EventCacheMiss, "cache-miss"},
		{serve.EventRunStarted, pipeline.EventRunStarted, "run-started"},
		{serve.EventRunEnd, pipeline.EventRunEnd, "run-end"},
	}
	svc := serve.New()
	defer svc.Close()
	ctx := context.Background()
	cfg := runCfg("distgo")
	cfg.PageRank = pagerank.Options{Seed: 11, Iterations: 10}
	cfg.Checkpoint.Every = 3
	kill := cfg
	kill.Fault = &dist.FaultPlan{KillRank: 0, AtIteration: 7}
	seen := map[serve.EventKind]int{}
	for _, run := range []struct {
		cfg  pipeline.Config
		opts []serve.RunOption
	}{
		{kill, []serve.RunOption{serve.WithResumeKey("kinds")}},
		{cfg, []serve.RunOption{serve.WithResumeKey("kinds")}},
		{cfg, nil},
	} {
		for ev := range svc.RunStream(ctx, run.cfg, run.opts...) {
			seen[ev.Kind]++
		}
	}
	for _, k := range kinds {
		if k.stream != k.pipe || k.stream.String() != k.name {
			t.Errorf("%s: stream kind %d (%v), pipeline's %d (%v)", k.name, int(k.stream), k.stream, int(k.pipe), k.pipe)
		}
		if seen[k.pipe] == 0 {
			t.Errorf("no %s event arrived", k.name)
		}
		delete(seen, k.pipe)
	}
	for k, n := range seen {
		t.Errorf("%d events of unknown kind %v", n, k)
	}
}

// TestWithCheckpointStorage pins the durable-storage option: epochs land
// in the supplied FS under the key-derived prefix, so a second Service
// (a "new process") resumes from them.
func TestWithCheckpointStorage(t *testing.T) {
	store := vfs.NewMem()
	ctx := context.Background()
	cfg := runCfg("dist")
	cfg.PageRank = pagerank.Options{Seed: 11, Iterations: 10}
	cfg.Checkpoint.Every = 5
	kill := cfg
	kill.Fault = &dist.FaultPlan{KillRank: 0, AtIteration: 10}

	svc1 := serve.New(serve.WithCheckpointStorage(store))
	if _, err := svc1.Run(ctx, kill, serve.WithResumeKey("k")); !errors.Is(err, dist.ErrFaultInjected) {
		t.Fatalf("killed run: %v", err)
	}
	svc1.Close()

	svc2 := serve.New(serve.WithCheckpointStorage(store))
	defer svc2.Close()
	res, err := svc2.Run(ctx, cfg, serve.WithResumeKey("k"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil || res.Checkpoint.ResumedFrom != 10 {
		t.Fatalf("cross-service resume record %+v, want resumed from 10", res.Checkpoint)
	}
}

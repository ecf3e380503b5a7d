package pipeline

// Tests for the context/session plumbing the API redesign added to the
// pipeline: cancellation via ExecuteKernelsContext, the Progress event
// stream (including the rank-0-only iteration reporting of the
// goroutine-rank variants), and the kernel-0 Source hook's metering.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/edge"
	"repro/internal/pagerank"
)

func TestExecuteContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteContext(ctx, smallCfg("csr")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestProgressIterationEventsOncePerIteration pins the single-observer
// contract: the distgo variant runs p rank replicas in lockstep, but the
// iteration stream must tick once per iteration (rank 0 reports), not
// once per rank per iteration.
func TestProgressIterationEventsOncePerIteration(t *testing.T) {
	for _, variant := range []string{"csr", "dist", "distgo"} {
		iters := 0
		var kernelEvents []Event
		cfg := smallCfg(variant)
		cfg.Progress = func(ev Event) {
			switch ev.Kind {
			case EventIteration:
				iters++
			default:
				kernelEvents = append(kernelEvents, ev)
			}
		}
		res, err := ExecuteContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if iters != res.RankIterations {
			t.Fatalf("%s: %d iteration events for %d iterations", variant, iters, res.RankIterations)
		}
		if len(kernelEvents) != 8 { // 4 kernels × (start + end)
			t.Fatalf("%s: want 8 kernel events, got %d", variant, len(kernelEvents))
		}
	}
}

// TestProgressComposesWithPageRankHook pins that Config.Progress wraps —
// rather than replaces — a caller-supplied pagerank per-iteration hook.
func TestProgressComposesWithPageRankHook(t *testing.T) {
	inner, events := 0, 0
	cfg := smallCfg("csr")
	cfg.PageRank.Progress = func(int) { inner++ }
	cfg.Progress = func(ev Event) {
		if ev.Kind == EventIteration {
			events++
		}
	}
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inner != res.RankIterations || events != res.RankIterations {
		t.Fatalf("hooks fired %d/%d times, want %d each", inner, events, res.RankIterations)
	}
}

// TestSourceHookFeedsKernel0 pins the cache seam: a Source-supplied list
// must flow through the whole pipeline unchanged and be metered in
// Cache.Edges, for serial and distributed variants alike.
func TestSourceHookFeedsKernel0(t *testing.T) {
	baseline, err := ExecuteContext(context.Background(), smallCfg("csr"))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := GenerateEdges(smallCfg("csr"))
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{"csr", "coo", "columnar", "graphblas", "dist", "distgo", "distext"} {
		calls := 0
		cfg := smallCfg(variant)
		cfg.Source = func(Config) (*edge.List, bool, error) {
			calls++
			return shared, true, nil
		}
		res, err := ExecuteContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if calls != 1 {
			t.Fatalf("%s: Source called %d times", variant, calls)
		}
		if res.Cache == nil || res.Cache.Edges != (StageCacheStats{Hits: 1}) {
			t.Fatalf("%s: Cache = %+v, want 1 edges-stage hit", variant, res.Cache)
		}
		if res.NNZ != baseline.NNZ {
			t.Fatalf("%s: NNZ %d != baseline %d — sourced list diverged", variant, res.NNZ, baseline.NNZ)
		}
	}
}

// TestSourceBypassVariants pins the two deliberate cache bypasses: the
// parallel variant's jump-stream generator and the extsort variant's
// streaming (bounded-memory) kernel 0 must ignore Cfg.Source.
func TestSourceBypassVariants(t *testing.T) {
	for _, variant := range []string{"parallel", "extsort"} {
		cfg := smallCfg(variant)
		cfg.Source = func(Config) (*edge.List, bool, error) {
			t.Fatalf("%s: Source must not be consulted", variant)
			return nil, false, nil
		}
		res, err := ExecuteContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if res.Cache != nil {
			t.Fatalf("%s: Cache should stay nil on bypass, got %+v", variant, res.Cache)
		}
	}
}

// TestResultConfigDropsClosures pins that the echoed Config does not
// retain the run's Source/Progress closures.
func TestResultConfigDropsClosures(t *testing.T) {
	cfg := smallCfg("csr")
	cfg.Progress = func(Event) {}
	shared, err := GenerateEdges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source = func(Config) (*edge.List, bool, error) { return shared, true, nil }
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Source != nil || res.Config.Progress != nil {
		t.Fatal("Result.Config retains the run's closures")
	}
}

// TestSourceErrorSurfaces pins the failure path.
func TestSourceErrorSurfaces(t *testing.T) {
	cfg := smallCfg("csr")
	boom := errors.New("generator down")
	cfg.Source = func(Config) (*edge.List, bool, error) { return nil, false, boom }
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, boom) {
		t.Fatalf("want the source error, got %v", err)
	}
}

// TestCancelBetweenKernels pins the kernel-boundary cancellation point:
// a context cancelled during kernel 1 stops the run before kernel 2.
func TestCancelBetweenKernels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := map[Kernel]bool{}
	cfg := smallCfg("csr")
	cfg.Progress = func(ev Event) {
		if ev.Kind == EventKernelEnd {
			ran[ev.Kernel] = true
			if ev.Kernel == K1Sort {
				cancel()
			}
		}
	}
	_, err := ExecuteContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !ran[K1Sort] || ran[K2Filter] {
		t.Fatalf("cancellation boundary wrong: ran = %v", ran)
	}
}

// TestCancelMidK3ReportsPartialIterations pins that the serial engines'
// per-iteration check aborts between iterations, not at the end.
func TestCancelMidK3ReportsPartialIterations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iters := 0
	cfg := smallCfg("csr")
	cfg.PageRank = pagerank.Options{Iterations: 100000}
	cfg.Progress = func(ev Event) {
		if ev.Kind == EventIteration {
			iters = ev.Iteration
			if ev.Iteration == 5 {
				cancel()
			}
		}
	}
	_, err := ExecuteContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if iters < 5 || iters > 100 {
		t.Fatalf("cancellation was not prompt: saw %d iterations", iters)
	}
}

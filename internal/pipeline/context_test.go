package pipeline

// Tests for the context/session plumbing the API redesign added to the
// pipeline: cancellation via ExecuteKernelsContext, the Progress event
// stream (including the rank-0-only iteration reporting of the
// goroutine-rank variants), and the closures a Result must not keep.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestResultConfigDropsClosures pins that the echoed Config does not
// retain the run's Progress and checkpoint-hook closures.
func TestResultConfigDropsClosures(t *testing.T) {
	cfg := smallCfg("csr")
	cfg.Progress = func(Event) {}
	cfg.Checkpoint.OnCommit = func(int64) {}
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Progress != nil || res.Config.Checkpoint.OnCommit != nil {
		t.Fatal("Result.Config retains the run's closures")
	}
}

// TestSourceErrorSurfaces pins the fabric seam's failure path: a
// socket-mode kernel 3 whose FabricSource fails returns that error.
func TestSourceErrorSurfaces(t *testing.T) {
	m, mass := captureMatrix(t, "dist")
	cfg := smallCfg("dist")
	cfg.DistMode = "socket"
	cfg.MatrixSource = func(Config) (MatrixLease, error) {
		return MatrixLease{Matrix: m, Mass: mass, Hit: true}, nil
	}
	boom := errors.New("fabric down")
	cfg.FabricSource = func(int) (FabricLease, error) { return FabricLease{}, boom }
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, boom) {
		t.Fatalf("want the fabric source error, got %v", err)
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

// TestCancelMidK3ClosesTheTeam is TestCancelMidK3ReportsPartialIterations
// on a two-worker gather team: the cancelled kernel 3 must close its team
// on the error path, so the goroutine count returns to its pre-run value.
func TestCancelMidK3ClosesTheTeam(t *testing.T) {
	waitGoroutines(t, "teams of earlier runs", func() bool { return teamWorkers() == 0 })
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	during := 0
	cfg := smallCfg("csr")
	cfg.Workers = 2
	cfg.PageRank = pagerank.Options{Iterations: 100000}
	cfg.Progress = func(ev Event) {
		if ev.Kind == EventIteration && ev.Iteration == 5 {
			during = teamWorkers()
			cancel()
		}
	}
	if _, err := ExecuteContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if during != 2 {
		t.Fatalf("%d team workers ran kernel 3, want 2: the check is blind", during)
	}
	waitGoroutines(t, "the cancelled run's team", func() bool { return runtime.NumGoroutine() <= base })
}

// teamWorkers counts the live goroutines that internal/workteam spawned.
func teamWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by repro/internal/workteam.New")
}

// waitGoroutines polls done for up to ten seconds, then fails with every
// goroutine's stack.
func waitGoroutines(t *testing.T, what string, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: goroutines still running\n%s", what, buf[:runtime.Stack(buf, true)])
		}
	}
}

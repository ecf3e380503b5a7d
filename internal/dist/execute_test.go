package dist_test

// Tests for the single entry point: its input contract, and that a
// cancelled context or a failed rank aborts mid-kernel-3 in every
// in-process mode promptly and without leaking a single goroutine — the
// fabric teardown-plane contract DESIGN.md §8 documents.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/vfs"
)

// executeGraph generates the shared small Kronecker input.
func executeGraph(t *testing.T, scale int) (*edge.List, int) {
	t.Helper()
	cfg := kronecker.New(scale, 5)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, int(cfg.N())
}

func sameRank(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: rank lengths %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: rank vectors differ at %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

func sameMatrix(t *testing.T, what string, a, b *sparse.CSR) {
	t.Helper()
	if a.N != b.N || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: matrix shape differs: N %d/%d nnz %d/%d", what, a.N, b.N, a.NNZ(), b.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr differs at %d", what, i)
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || a.Val[i] != b.Val[i] {
			t.Fatalf("%s: entry %d differs", what, i)
		}
	}
}

// The Execute call of each op, spelled once for the suites that run it
// in a loop.

func execRun(cfg dist.Config, l *edge.List, n, p int, opt pagerank.Options) (*dist.Result, error) {
	out, err := dist.Execute(context.Background(), dist.Spec{Config: cfg, Op: dist.OpRun, Edges: l, N: n, Procs: p, PageRank: opt})
	if err != nil {
		return nil, err
	}
	return out.Run, nil
}

func execRunMatrix(cfg dist.Config, a *sparse.CSR, p int, opt pagerank.Options) (*dist.Result, error) {
	out, err := dist.Execute(context.Background(), dist.Spec{Config: cfg, Op: dist.OpRunMatrix, Matrix: a, Procs: p, PageRank: opt})
	if err != nil {
		return nil, err
	}
	return out.Run, nil
}

func execBuild(mode dist.ExecMode, l *edge.List, n, p int) (*dist.BuildResult, error) {
	out, err := dist.Execute(context.Background(), dist.Spec{Config: dist.Config{Mode: mode}, Op: dist.OpBuildFiltered, Edges: l, N: n, Procs: p})
	if err != nil {
		return nil, err
	}
	return out.Build, nil
}

func execSort(cfg dist.Config, l *edge.List, p int) (*dist.SortResult, error) {
	out, err := dist.Execute(context.Background(), dist.Spec{Config: cfg, Op: dist.OpSort, Edges: l, Procs: p})
	if err != nil {
		return nil, err
	}
	return out.Sort, nil
}

func execSortExt(mode dist.ExecMode, l *edge.List, p int, ext dist.ExtSortConfig) (*dist.ExtSortResult, error) {
	out, err := dist.Execute(context.Background(), dist.Spec{Config: dist.Config{Mode: mode}, Op: dist.OpSortExternal, Edges: l, Procs: p, Ext: ext})
	if err != nil {
		return nil, err
	}
	return out.ExtSort, nil
}

// TestExecuteCancelMidKernel3 pins prompt cancellation: a context
// cancelled three iterations into a 100000-iteration kernel 3 must abort
// the run with context.Canceled in both modes, long before the iteration
// budget could complete.
func TestExecuteCancelMidKernel3(t *testing.T) {
	l, n := executeGraph(t, 8)
	for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := pagerank.Options{
			Seed:       5,
			Iterations: 100000,
			Progress: func(it int) {
				if it == 3 {
					cancel()
				}
			},
		}
		start := time.Now()
		_, err := dist.Execute(ctx, dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpRun,
			Edges: l, N: n, Procs: 4, PageRank: opt,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: want context.Canceled, got %v", mode, err)
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("mode %v: cancellation took %v — not prompt", mode, d)
		}
	}
}

// waitForGoroutines polls until the live goroutine count drops back to
// at most want, failing after the deadline — the goleak-style counting
// check of the teardown contract.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // give finished goroutines a scheduling chance
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: have %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledRunsLeakNoGoroutines runs a batch of in-process
// executions that are cancelled mid-kernel-3 — with hybrid intra-rank
// teams in play — and checks that every rank goroutine, worker team and
// watcher is gone afterwards.  One at a time, the cancelling rank holds
// the run token while its peers wait for it: the abort must free them.
func TestCancelledRunsLeakNoGoroutines(t *testing.T) {
	l, n := executeGraph(t, 8)
	base := runtime.NumGoroutine()
	for _, mode := range execModes {
		for i := 0; i < 5; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			opt := pagerank.Options{
				Seed:       5,
				Iterations: 100000,
				Progress: func(it int) {
					if it == 2 {
						cancel()
					}
				},
			}
			_, err := dist.Execute(ctx, dist.Spec{
				Config: dist.Config{Mode: mode, Workers: 2}, Op: dist.OpRun,
				Edges: l, N: n, Procs: 4, PageRank: opt,
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v run %d: want context.Canceled, got %v", mode, i, err)
			}
		}
	}
	waitForGoroutines(t, base+2)
}

// TestFailedRunLeaksNoGoroutines drives the in-process out-of-core sort
// into a storage failure (the error-mid-schedule path) and checks the
// rank teardown leaves no goroutine behind.
func TestFailedRunLeaksNoGoroutines(t *testing.T) {
	l, _ := executeGraph(t, 8)
	base := runtime.NumGoroutine()
	for _, mode := range execModes {
		for i := 0; i < 3; i++ {
			faulty := vfs.NewFaulty(vfs.NewMem(), 1024) // fail after 1 KiB of I/O
			_, err := dist.Execute(context.Background(), dist.Spec{
				Config: dist.Config{Mode: mode}, Op: dist.OpSortExternal,
				Edges: l, Procs: 4, Ext: dist.ExtSortConfig{FS: faulty, RunEdges: 64},
			})
			if err == nil {
				t.Fatalf("%v on a faulty FS: want error, got success", mode)
			}
		}
	}
	waitForGoroutines(t, base+2)
}

// TestExecuteRejectsUnknown pins the dispatcher's input contract.
func TestExecuteRejectsUnknown(t *testing.T) {
	l, n := executeGraph(t, 6)
	if _, err := dist.Execute(context.Background(), dist.Spec{Op: dist.Op(99), Edges: l, N: n, Procs: 2}); err == nil {
		t.Fatal("unknown op: want error")
	}
	if _, err := dist.Execute(context.Background(), dist.Spec{Config: dist.Config{Mode: dist.ExecMode(7)}, Op: dist.OpRun, Edges: l, N: n, Procs: 2}); err == nil {
		t.Fatal("unknown mode: want error")
	}
	// A Session is a socket fabric: no other mode can run on one.
	for _, mode := range execModes {
		if _, err := dist.Execute(context.Background(), dist.Spec{Config: dist.Config{Mode: mode}, Op: dist.OpRun, Edges: l, N: n, Procs: 2, Session: new(dist.Session)}); err == nil {
			t.Fatalf("%v on a socket session: want error", mode)
		}
	}
}

// TestExecutePreCancelled pins that an already-cancelled context never
// starts work in either mode.
func TestExecutePreCancelled(t *testing.T) {
	l, n := executeGraph(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
		_, err := dist.Execute(ctx, dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpRun, Edges: l, N: n, Procs: 2,
			PageRank: pagerank.Options{Seed: 5},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: want context.Canceled, got %v", mode, err)
		}
	}
}

package dist_test

// Property tests for the goroutine ranks: concurrent runs repeat bit for
// bit despite scheduling noise, the measured comm equals the closed-form
// byte model, bad input fails on every rank without a deadlock, and
// kernel 3 on the split matrix is kernel 3 on the distributed build.
// Agreement with the serial kernels is dist_test.go's and the kernel-3
// bits are golden_test.go's.  Run under -race in CI.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/pagerank"
)

func TestGoroutineCommEqualsPredictionExactly(t *testing.T) {
	l, n := kron(t, 7, 3)
	for _, p := range procCounts {
		for _, dangling := range []bool{false, true} {
			opt := pagerank.Options{Seed: 1, Iterations: 5, Dangling: dangling}
			res, err := execRun(dist.Config{Mode: dist.ExecGoroutine}, l, n, p, opt)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
			predicted := dist.PredictedCommBytes(n, p, res.Iterations, dangling)
			if measured != predicted {
				t.Errorf("p=%d dangling=%v: measured %d channel bytes, predicted %d",
					p, dangling, measured, predicted)
			}
		}
	}
}

func TestGoroutineRunDeterminism(t *testing.T) {
	// Repeated concurrent runs must produce identical rank vectors and
	// byte counts: the collectives pin the reduction order, so scheduling
	// noise must not be observable.
	l, n := kron(t, 7, 11)
	const p = 5
	opt := pagerank.Options{Seed: 3, Iterations: 6, Dangling: true}
	first, err := execRun(dist.Config{Mode: dist.ExecGoroutine}, l, n, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.RankSeconds) != p {
		t.Errorf("RankSeconds has %d entries, want %d", len(first.RankSeconds), p)
	}
	for run := 0; run < 4; run++ {
		res, err := execRun(dist.Config{Mode: dist.ExecGoroutine}, l, n, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Comm != first.Comm {
			t.Fatalf("run %d: comm %+v, first %+v", run, res.Comm, first.Comm)
		}
		for i := range first.Rank {
			if res.Rank[i] != first.Rank[i] {
				t.Fatalf("run %d: rank[%d] differs between repeats", run, i)
			}
		}
	}
}

// TestRunMatrixEqualsRunBitForBit: kernel 3 on the assembled matrix,
// split into row blocks, is kernel 3 on the blocks the ranks built from
// the edges — the same rank bits and the same collectives, less the
// kernel-2 traffic.
func TestRunMatrixEqualsRunBitForBit(t *testing.T) {
	l, n := kron(t, 7, 6)
	opt := pagerank.Options{Seed: 2, Dangling: true, Iterations: 5}
	for _, p := range procCounts {
		b, err := execBuild(dist.ExecGoroutine, l, n, p)
		if err != nil {
			t.Fatalf("p=%d build: %v", p, err)
		}
		run, err := execRun(dist.Config{}, l, n, p, opt)
		if err != nil {
			t.Fatalf("p=%d run: %v", p, err)
		}
		res, err := execRunMatrix(dist.Config{}, b.Matrix, p, opt)
		if err != nil {
			t.Fatalf("p=%d run-matrix: %v", p, err)
		}
		sameRank(t, fmt.Sprintf("p=%d run-matrix vs run", p), res.Rank, run.Rank)
		sum := b.Comm
		sum.Add(res.Comm)
		if sum != run.Comm {
			t.Errorf("p=%d: build %+v + run-matrix %+v != run %+v", p, b.Comm, res.Comm, run.Comm)
		}
		if res.NNZ != b.Matrix.NNZ() || res.Iterations != run.Iterations {
			t.Errorf("p=%d: NNZ/iters %d/%d, want %d/%d", p, res.NNZ, res.Iterations, b.Matrix.NNZ(), run.Iterations)
		}
	}
}

func TestGoroutineRejectsBadInput(t *testing.T) {
	l, n := kron(t, 5, 1)
	for _, mode := range execModes {
		cfg := dist.Config{Mode: mode}
		if _, err := execRun(cfg, l, n, 0, pagerank.Options{}); err == nil {
			t.Errorf("%v: p = 0 accepted", mode)
		}
		if _, err := execRun(cfg, nil, n, 2, pagerank.Options{}); err == nil {
			t.Errorf("%v: nil list accepted", mode)
		}
		if _, err := execRun(cfg, l, 2, 2, pagerank.Options{}); err == nil {
			t.Errorf("%v: out-of-range vertices accepted", mode)
		}
		// Invalid options must fail on every rank consistently (no
		// deadlock).
		if _, err := execRun(cfg, l, n, 3, pagerank.Options{Damping: 2}); err == nil {
			t.Errorf("%v: invalid damping accepted", mode)
		}
		if _, err := execRun(cfg, l, n, 3, pagerank.Options{Teleport: []float64{1}}); err == nil {
			t.Errorf("%v: short teleport vector accepted", mode)
		}
		if _, err := execSort(cfg, nil, 2); err == nil {
			t.Errorf("%v: sort of nil list accepted", mode)
		}
		if _, err := execRunMatrix(cfg, nil, 2, pagerank.Options{}); err == nil {
			t.Errorf("%v: nil matrix accepted", mode)
		}
	}
	if _, err := execRun(dist.Config{Mode: dist.ExecMode(99)}, l, n, 2, pagerank.Options{}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestGoroutineCheckpointRestartPath(t *testing.T) {
	// InitialRank is the checkpoint-restart seed: rank 0 broadcasts it, so
	// two iterations resumed from a three-iteration run's vector must be
	// the five-iteration run bit for bit.
	l, n := kron(t, 6, 4)
	opt := pagerank.Options{Seed: 1, Iterations: 3, InitialRank: pagerank.InitVector(n, 77)}
	mid, err := execRun(dist.Config{}, l, n, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Iterations = 5
	want, err := execRun(dist.Config{}, l, n, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Iterations, opt.InitialRank = 2, mid.Rank
	got, err := execRun(dist.Config{}, l, n, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameRank(t, "restart path", got.Rank, want.Rank)
}

func TestParseExecMode(t *testing.T) {
	for s, want := range map[string]dist.ExecMode{
		"": dist.ExecGoroutine, "goroutine": dist.ExecGoroutine, "socket": dist.ExecSocket,
	} {
		got, err := dist.ParseExecMode(s)
		if err != nil || got != want {
			t.Errorf("ParseExecMode(%q) = %v, %v", s, got, err)
		}
	}
	// One spelling each: the retired simulation and the short forms fail,
	// naming the value and the valid modes.
	for _, s := range []string{"sim", "go", "sock"} {
		_, err := dist.ParseExecMode(s)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", s)) || !strings.Contains(err.Error(), "goroutine, socket") {
			t.Errorf("ParseExecMode(%q): err = %v", s, err)
		}
	}
	if dist.ExecGoroutine.String() != "goroutine" || dist.ExecSocket.String() != "socket" {
		t.Error("mode strings changed")
	}
}

func TestUnknownExecModeErrors(t *testing.T) {
	// An unknown mode — misspelled on the command line or an out-of-range
	// enum value reaching Execute — must fail with an error that names the
	// offending value and lists every valid mode, so the user can fix the
	// spelling without reading source.
	l, n := kron(t, 5, 1)
	cases := []struct {
		name string
		run  func() error
		want []string // substrings the error must contain
	}{
		{
			name: "parse misspelled string",
			run: func() error {
				_, err := dist.ParseExecMode("mpi")
				return err
			},
			want: []string{`"mpi"`, "goroutine, socket"},
		},
		{
			name: "parse socket typo",
			run: func() error {
				_, err := dist.ParseExecMode("sockets")
				return err
			},
			want: []string{`"sockets"`, "goroutine, socket"},
		},
		{
			name: "run with out-of-range enum",
			run: func() error {
				_, err := execRun(dist.Config{Mode: dist.ExecMode(42)}, l, n, 2, pagerank.Options{})
				return err
			},
			want: []string{"42", "goroutine, socket"},
		},
		{
			name: "sort with out-of-range enum",
			run: func() error {
				_, err := execSort(dist.Config{Mode: dist.ExecMode(7)}, l, 2)
				return err
			},
			want: []string{"7", "goroutine, socket"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("unknown execution mode accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

package dist_test

// Property tests for interleaving independence: for every processor
// count the ranks run concurrently (ExecGoroutine) must equal the same
// ranks run one at a time (ExecSim) bit for bit — rank vectors, sorted
// output, assembled matrix AND communication record — and therefore equal
// the closed-form byte model too.  A determinism test pins that repeated
// concurrent runs are identical despite scheduling noise.  Run under
// -race in CI.

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/pagerank"
)

func TestGoroutineSortEqualsSimBitForBit(t *testing.T) {
	inputs := map[string]*edge.List{}
	inputs["kronecker"], _ = kron(t, 7, 5)

	few := edge.NewList(64)
	for i := 0; i < 64; i++ {
		few.Append(uint64(i%2), uint64(i))
	}
	inputs["two-distinct-u"] = few
	inputs["empty"] = edge.NewList(0)

	for name, l := range inputs {
		for _, p := range procCounts {
			sim, err := execSort(dist.Config{Mode: dist.ExecSim}, l, p)
			if err != nil {
				t.Fatalf("%s p=%d sim: %v", name, p, err)
			}
			real, err := execSort(dist.Config{Mode: dist.ExecGoroutine}, l, p)
			if err != nil {
				t.Fatalf("%s p=%d goroutine: %v", name, p, err)
			}
			if !real.Sorted.Equal(sim.Sorted) {
				t.Errorf("%s p=%d: goroutine sort differs from simulation", name, p)
			}
			if real.Comm != sim.Comm {
				t.Errorf("%s p=%d: goroutine comm %+v, sim %+v", name, p, real.Comm, sim.Comm)
			}
		}
	}
}

func TestGoroutineRunEqualsSimBitForBit(t *testing.T) {
	l, n := kron(t, 8, 9)
	for _, p := range procCounts {
		for _, dangling := range []bool{false, true} {
			opt := pagerank.Options{Seed: 4, Iterations: 7, Dangling: dangling}
			sim, err := execRun(dist.Config{Mode: dist.ExecSim}, l, n, p, opt)
			if err != nil {
				t.Fatalf("p=%d sim: %v", p, err)
			}
			real, err := execRun(dist.Config{Mode: dist.ExecGoroutine}, l, n, p, opt)
			if err != nil {
				t.Fatalf("p=%d goroutine: %v", p, err)
			}
			if real.NNZ != sim.NNZ || real.Iterations != sim.Iterations {
				t.Errorf("p=%d dangling=%v: NNZ/iters %d/%d, sim %d/%d",
					p, dangling, real.NNZ, real.Iterations, sim.NNZ, sim.Iterations)
			}
			for i := range sim.Rank {
				if real.Rank[i] != sim.Rank[i] {
					t.Fatalf("p=%d dangling=%v: rank[%d] = %v, sim %v — not bit-for-bit",
						p, dangling, i, real.Rank[i], sim.Rank[i])
				}
			}
			if real.Comm != sim.Comm {
				t.Errorf("p=%d dangling=%v: comm %+v, sim %+v", p, dangling, real.Comm, sim.Comm)
			}
			if len(real.RankSeconds) != p {
				t.Errorf("p=%d: RankSeconds has %d entries", p, len(real.RankSeconds))
			}
			if sim.RankSeconds != nil {
				t.Error("simulation must not report per-rank wall clock")
			}
		}
	}
}

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

func TestGoroutineBuildFilteredEqualsSim(t *testing.T) {
	l, n := kron(t, 7, 2)
	for _, p := range procCounts {
		sim, err := execBuild(dist.ExecSim, l, n, p)
		if err != nil {
			t.Fatalf("p=%d sim: %v", p, err)
		}
		real, err := execBuild(dist.ExecGoroutine, l, n, p)
		if err != nil {
			t.Fatalf("p=%d goroutine: %v", p, err)
		}
		if real.Mass != sim.Mass || real.NNZ != sim.NNZ {
			t.Errorf("p=%d: mass/NNZ %v/%d, sim %v/%d", p, real.Mass, real.NNZ, sim.Mass, sim.NNZ)
		}
		if real.Comm != sim.Comm {
			t.Errorf("p=%d: comm %+v, sim %+v", p, real.Comm, sim.Comm)
		}
		if err := real.Matrix.Validate(); err != nil {
			t.Fatalf("p=%d: assembled matrix invalid: %v", p, err)
		}
		for k := range sim.Matrix.Val {
			if real.Matrix.Col[k] != sim.Matrix.Col[k] || real.Matrix.Val[k] != sim.Matrix.Val[k] {
				t.Fatalf("p=%d: assembled matrix entry %d differs", p, k)
			}
		}
	}
}

func TestGoroutineRunMatrixEqualsSim(t *testing.T) {
	l, n := kron(t, 7, 6)
	b, err := execBuild(dist.ExecSim, l, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := pagerank.Options{Seed: 2, Dangling: true, Iterations: 5}
	for _, p := range procCounts {
		sim, err := execRunMatrix(dist.Config{Mode: dist.ExecSim}, b.Matrix, p, opt)
		if err != nil {
			t.Fatalf("p=%d sim: %v", p, err)
		}
		real, err := execRunMatrix(dist.Config{Mode: dist.ExecGoroutine}, b.Matrix, p, opt)
		if err != nil {
			t.Fatalf("p=%d goroutine: %v", p, err)
		}
		for i := range sim.Rank {
			if real.Rank[i] != sim.Rank[i] {
				t.Fatalf("p=%d: rank[%d] not bit-for-bit", p, i)
			}
		}
		if real.Comm != sim.Comm {
			t.Errorf("p=%d: comm %+v, sim %+v", p, real.Comm, sim.Comm)
		}
		if real.NNZ != b.Matrix.NNZ() {
			t.Errorf("p=%d: NNZ %d, want %d", p, real.NNZ, b.Matrix.NNZ())
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
		// deadlock) — one at a time, rank 0 fails holding the run token
		// its peers have yet to see.
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
	// InitialRank is the checkpoint-restart seed; the broadcast must ship
	// it from rank 0 and the result must match the simulation bit for bit.
	l, n := kron(t, 6, 4)
	init := pagerank.InitVector(n, 77)
	opt := pagerank.Options{Seed: 1, Iterations: 3, InitialRank: init}
	sim, err := execRun(dist.Config{Mode: dist.ExecSim}, l, n, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	real, err := execRun(dist.Config{Mode: dist.ExecGoroutine}, l, n, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sim.Rank {
		if real.Rank[i] != sim.Rank[i] {
			t.Fatalf("rank[%d] not bit-for-bit on restart path", i)
		}
	}
}

func TestParseExecMode(t *testing.T) {
	for s, want := range map[string]dist.ExecMode{
		"": dist.ExecSim, "sim": dist.ExecSim,
		"goroutine": dist.ExecGoroutine, "go": dist.ExecGoroutine,
		"socket": dist.ExecSocket, "sock": dist.ExecSocket,
	} {
		got, err := dist.ParseExecMode(s)
		if err != nil || got != want {
			t.Errorf("ParseExecMode(%q) = %v, %v", s, got, err)
		}
	}
	if dist.ExecSim.String() != "sim" || dist.ExecGoroutine.String() != "goroutine" || dist.ExecSocket.String() != "socket" {
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
			want: []string{`"mpi"`, "sim, goroutine, socket"},
		},
		{
			name: "parse socket typo",
			run: func() error {
				_, err := dist.ParseExecMode("sockets")
				return err
			},
			want: []string{`"sockets"`, "sim, goroutine, socket"},
		},
		{
			name: "run with out-of-range enum",
			run: func() error {
				_, err := execRun(dist.Config{Mode: dist.ExecMode(42)}, l, n, 2, pagerank.Options{})
				return err
			},
			want: []string{"42", "sim, goroutine, socket"},
		},
		{
			name: "sort with out-of-range enum",
			run: func() error {
				_, err := execSort(dist.Config{Mode: dist.ExecMode(7)}, l, 2)
				return err
			},
			want: []string{"7", "sim, goroutine, socket"},
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

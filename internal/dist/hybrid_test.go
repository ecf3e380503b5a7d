package dist_test

// Property tests for the hybrid intra-rank runtime (dist.Config.Workers):
// the worker count is a pure wall-clock knob.  For every p × w, in both
// execution modes, the rank vectors must equal the w = 1 simulation bit
// for bit, the CommStats record must be identical (intra-rank workers
// move no wire bytes), and the sorted kernel-1 output must equal the
// serial stable radix sort — DESIGN.md §7's invariants.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/pagerank"
	"repro/internal/xsort"
)

// workerCounts crosses serial ranks, an even split and a worker count
// that exceeds some ranks' block sizes at small scales.
var workerCounts = []int{1, 2, 4}

func TestHybridRunBitForBitAcrossWorkersAndModes(t *testing.T) {
	l, n := kron(t, 8, 9)
	for _, dangling := range []bool{false, true} {
		opt := pagerank.Options{Seed: 4, Iterations: 6, Dangling: dangling}
		for _, p := range procCounts {
			base, err := execRun(dist.Config{}, l, n, p, opt) // sim, serial ranks: the contract baseline
			if err != nil {
				t.Fatalf("p=%d baseline: %v", p, err)
			}
			for _, w := range workerCounts {
				for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
					res, err := execRun(dist.Config{Mode: mode, Workers: w}, l, n, p, opt)
					if err != nil {
						t.Fatalf("p=%d w=%d %v: %v", p, w, mode, err)
					}
					if res.Comm != base.Comm {
						t.Errorf("p=%d w=%d %v dangling=%v: comm %+v, baseline %+v",
							p, w, mode, dangling, res.Comm, base.Comm)
					}
					if res.NNZ != base.NNZ || res.Iterations != base.Iterations {
						t.Errorf("p=%d w=%d %v: NNZ/iters %d/%d, baseline %d/%d",
							p, w, mode, res.NNZ, res.Iterations, base.NNZ, base.Iterations)
					}
					for i := range base.Rank {
						if res.Rank[i] != base.Rank[i] {
							t.Fatalf("p=%d w=%d %v dangling=%v: rank[%d] = %v, baseline %v — workers changed bits",
								p, w, mode, dangling, i, res.Rank[i], base.Rank[i])
						}
					}
				}
			}
		}
	}
}

func TestHybridRunMatrixBitForBitAcrossWorkers(t *testing.T) {
	l, n := kron(t, 7, 6)
	b, err := execBuild(dist.ExecSim, l, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := pagerank.Options{Seed: 2, Dangling: true, Iterations: 5}
	for _, p := range procCounts {
		base, err := execRunMatrix(dist.Config{}, b.Matrix, p, opt)
		if err != nil {
			t.Fatalf("p=%d baseline: %v", p, err)
		}
		for _, w := range workerCounts {
			for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
				res, err := execRunMatrix(dist.Config{Mode: mode, Workers: w}, b.Matrix, p, opt)
				if err != nil {
					t.Fatalf("p=%d w=%d %v: %v", p, w, mode, err)
				}
				if res.Comm != base.Comm {
					t.Errorf("p=%d w=%d %v: comm %+v, baseline %+v", p, w, mode, res.Comm, base.Comm)
				}
				for i := range base.Rank {
					if res.Rank[i] != base.Rank[i] {
						t.Fatalf("p=%d w=%d %v: rank[%d] not bit-for-bit", p, w, mode, i)
					}
				}
			}
		}
	}
}

func TestHybridSortEqualsSerialAcrossWorkersAndModes(t *testing.T) {
	inputs := map[string]*edge.List{}
	inputs["kronecker"], _ = kron(t, 7, 5)
	few := edge.NewList(64)
	for i := 0; i < 64; i++ {
		few.Append(uint64(i%2), uint64(i))
	}
	inputs["two-distinct-u"] = few
	inputs["empty"] = edge.NewList(0)

	for name, l := range inputs {
		serial := l.Clone()
		xsort.RadixByU(serial)
		for _, p := range procCounts {
			base, err := execSort(dist.Config{}, l, p)
			if err != nil {
				t.Fatalf("%s p=%d baseline: %v", name, p, err)
			}
			for _, w := range workerCounts {
				for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
					res, err := execSort(dist.Config{Mode: mode, Workers: w}, l, p)
					if err != nil {
						t.Fatalf("%s p=%d w=%d %v: %v", name, p, w, mode, err)
					}
					if !res.Sorted.Equal(serial) {
						t.Errorf("%s p=%d w=%d %v: hybrid sort diverges from serial radix sort", name, p, w, mode)
					}
					if res.Comm != base.Comm {
						t.Errorf("%s p=%d w=%d %v: comm %+v, baseline %+v", name, p, w, mode, res.Comm, base.Comm)
					}
				}
			}
		}
	}
}

func TestHybridPredictedCommBytesUnchanged(t *testing.T) {
	// The closed form knows nothing of intra-rank workers, and must not
	// need to: measured channel bytes stay equal to it for every w.
	l, n := kron(t, 7, 3)
	for _, p := range procCounts {
		for _, w := range workerCounts {
			opt := pagerank.Options{Seed: 1, Iterations: 4, Dangling: true}
			res, err := execRun(dist.Config{Mode: dist.ExecGoroutine, Workers: w}, l, n, p, opt)
			if err != nil {
				t.Fatalf("p=%d w=%d: %v", p, w, err)
			}
			measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
			predicted := dist.PredictedCommBytes(n, p, res.Iterations, true)
			if measured != predicted {
				t.Errorf("p=%d w=%d: measured %d channel bytes, predicted %d", p, w, measured, predicted)
			}
		}
	}
}

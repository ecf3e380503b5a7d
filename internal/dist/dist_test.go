package dist_test

// Property tests for the distributed runtime: for every
// processor count the distributed sort must equal the serial stable radix
// sort bit for bit, the distributed pipeline must match the serial
// reference, and the measured collective traffic must equal the
// closed-form model exactly.

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

// procCounts includes p = 1 (degenerate), a p that does not divide
// typical sizes, and p = 8 (larger than the distinct-start-vertex count
// of the crafted inputs below).
var procCounts = []int{1, 2, 3, 5, 8}

func kron(t *testing.T, scale int, seed uint64) (*edge.List, int) {
	t.Helper()
	cfg := kronecker.New(scale, seed)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, int(cfg.N())
}

func TestSortEqualsSerialBitForBit(t *testing.T) {
	inputs := map[string]*edge.List{}
	inputs["kronecker"], _ = kron(t, 7, 5)

	// Two distinct start vertices only: with p = 8 most splitters
	// duplicate and most buckets stay empty.
	few := edge.NewList(64)
	for i := 0; i < 64; i++ {
		few.Append(uint64(i%2), uint64(i))
	}
	inputs["two-distinct-u"] = few

	// All-equal keys: stability is the entire sort.
	same := edge.NewList(16)
	for i := 0; i < 16; i++ {
		same.Append(3, uint64(15-i))
	}
	inputs["all-equal-u"] = same

	inputs["empty"] = edge.NewList(0)

	for name, l := range inputs {
		want := l.Clone()
		// The serial reference kernel 1: stable LSD radix by start vertex.
		res0, err := execSort(dist.Config{}, want, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = res0.Sorted
		for _, p := range procCounts {
			res, err := execSort(dist.Config{}, l, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if !res.Sorted.Equal(want) {
				t.Errorf("%s p=%d: distributed sort differs from serial sort", name, p)
			}
			if !res.Sorted.SameMultiset(l) {
				t.Errorf("%s p=%d: sort lost edges", name, p)
			}
			if p > 1 && l.Len() > 8 && res.Comm.AllToAllBytes == 0 {
				t.Errorf("%s p=%d: no all-to-all traffic metered", name, p)
			}
			if p == 1 && res.Comm != (dist.CommStats{}) {
				t.Errorf("%s p=1: nonzero comm %+v", name, res.Comm)
			}
		}
	}
}

func TestSortRejectsBadInput(t *testing.T) {
	if _, err := execSort(dist.Config{}, nil, 2); err == nil {
		t.Error("nil list accepted")
	}
	if _, err := execSort(dist.Config{}, edge.NewList(0), 0); err == nil {
		t.Error("p = 0 accepted")
	}
}

func TestRunMatchesSerialReferenceEveryP(t *testing.T) {
	l, n := kron(t, 8, 9)
	a, err := sparse.FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.ApplyKernel2Filter(a)
	opt := pagerank.Options{Seed: 4}
	want, err := pagerank.Scatter(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procCounts {
		res, err := execRun(dist.Config{}, l, n, p, opt)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.NNZ != a.NNZ() {
			t.Errorf("p=%d: NNZ %d, serial %d", p, res.NNZ, a.NNZ())
		}
		if res.Iterations != want.Iterations {
			t.Errorf("p=%d: iterations %d, serial %d", p, res.Iterations, want.Iterations)
		}
		for i := range want.Rank {
			if math.Abs(res.Rank[i]-want.Rank[i]) > 1e-9 {
				t.Fatalf("p=%d: rank[%d] = %v, serial %v", p, i, res.Rank[i], want.Rank[i])
			}
		}
	}
}

func TestRunPExceedsVertexAndDistinctCounts(t *testing.T) {
	// n = 4 with a single start vertex: p = 5 and 8 leave most virtual
	// processors without rows or edges.
	l := edge.NewList(8)
	for i := 0; i < 8; i++ {
		l.Append(0, uint64(i%4))
	}
	const n = 4
	a, err := sparse.FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.ApplyKernel2Filter(a)
	want, err := pagerank.Scatter(a, pagerank.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procCounts {
		res, err := execRun(dist.Config{}, l, n, p, pagerank.Options{Seed: 1})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range want.Rank {
			if math.Abs(res.Rank[i]-want.Rank[i]) > 1e-9 {
				t.Fatalf("p=%d: rank diverges at %d", p, i)
			}
		}
	}
}

func TestBuildFilteredEqualsSerialKernel2(t *testing.T) {
	l, n := kron(t, 7, 2)
	ref, err := sparse.FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	mass := ref.SumValues()
	pipeline.ApplyKernel2Filter(ref)
	for _, p := range procCounts {
		b, err := execBuild(dist.ExecGoroutine, l, n, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if b.Mass != mass {
			t.Errorf("p=%d: mass %v, serial %v", p, b.Mass, mass)
		}
		if b.NNZ != ref.NNZ() {
			t.Fatalf("p=%d: NNZ %d, serial %d", p, b.NNZ, ref.NNZ())
		}
		if err := b.Matrix.Validate(); err != nil {
			t.Fatalf("p=%d: assembled matrix invalid: %v", p, err)
		}
		for k := range ref.Val {
			if b.Matrix.Col[k] != ref.Col[k] || b.Matrix.Val[k] != ref.Val[k] {
				t.Fatalf("p=%d: assembled matrix entry %d differs", p, k)
			}
		}
	}
}

func TestCommStatsEqualPredictionExactly(t *testing.T) {
	l, n := kron(t, 7, 3)
	for _, p := range procCounts {
		for _, iters := range []int{1, 5, 20} {
			for _, dangling := range []bool{false, true} {
				opt := pagerank.Options{Seed: 1, Iterations: iters, Dangling: dangling}
				res, err := execRun(dist.Config{}, l, n, p, opt)
				if err != nil {
					t.Fatalf("p=%d iters=%d dangling=%v: %v", p, iters, dangling, err)
				}
				measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
				predicted := dist.PredictedCommBytes(n, p, res.Iterations, dangling)
				if measured != predicted {
					t.Errorf("p=%d iters=%d dangling=%v: measured %d bytes, predicted %d",
						p, iters, dangling, measured, predicted)
				}
				if p > 1 && res.Comm.AllReduceCalls == 0 {
					t.Errorf("p=%d: no all-reduce calls recorded", p)
				}
			}
		}
	}
}

func TestCommPredictionZeroDefaultIterations(t *testing.T) {
	// Options{} resolves to the benchmark's 20 iterations; the prediction
	// taken at pagerank.DefaultIterations must match (the prreport path).
	l, n := kron(t, 6, 8)
	const p = 4
	res, err := execRun(dist.Config{}, l, n, p, pagerank.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
	if want := dist.PredictedCommBytes(n, p, pagerank.DefaultIterations, false); measured != want {
		t.Errorf("measured %d, predicted %d", measured, want)
	}
	if dist.PredictedCommBytes(n, 1, 20, true) != 0 {
		t.Error("p = 1 must predict zero communication")
	}
	// And a single processor must measure zero too, calls included,
	// matching Sort's p = 1 contract.
	res1, err := execRun(dist.Config{}, l, n, 1, pagerank.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Comm != (dist.CommStats{}) {
		t.Errorf("p = 1 run recorded communication: %+v", res1.Comm)
	}
}

func TestRunMatrixMatchesSerialEngines(t *testing.T) {
	l, n := kron(t, 7, 6)
	a, err := sparse.FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.ApplyKernel2Filter(a)
	opt := pagerank.Options{Seed: 2, Dangling: true}
	want, err := pagerank.Scatter(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procCounts {
		res, err := execRunMatrix(dist.Config{}, a, p, opt)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range want.Rank {
			if math.Abs(res.Rank[i]-want.Rank[i]) > 1e-9 {
				t.Fatalf("p=%d: rank diverges at %d", p, i)
			}
		}
	}
}

func TestRunToleranceEarlyExitMetersActualIterations(t *testing.T) {
	l, n := kron(t, 7, 7)
	opt := pagerank.Options{Seed: 1, Iterations: 200, Tolerance: 1e-3}
	res, err := execRun(dist.Config{}, l, n, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 200 || res.Iterations < 1 {
		t.Fatalf("tolerance run did %d iterations", res.Iterations)
	}
	measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
	if want := dist.PredictedCommBytes(n, 3, res.Iterations, false); measured != want {
		t.Errorf("early-exit comm %d, predicted %d", measured, want)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	l, n := kron(t, 5, 1)
	if _, err := execRun(dist.Config{}, l, n, 0, pagerank.Options{}); err == nil {
		t.Error("p = 0 accepted")
	}
	if _, err := execRun(dist.Config{}, l, 0, 2, pagerank.Options{}); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := execRun(dist.Config{}, l, 2, 2, pagerank.Options{}); err == nil {
		t.Error("out-of-range vertices accepted")
	}
	bad := pagerank.Options{Damping: 2}
	if _, err := execRun(dist.Config{}, l, n, 2, bad); err == nil {
		t.Error("invalid damping accepted")
	}
	if _, err := execRun(dist.Config{}, l, n, 2, pagerank.Options{Teleport: []float64{1}}); err == nil {
		t.Error("short teleport vector accepted")
	}
}

// TestRunMatrixRejectsNonFinite: an operand holding NaN or ±Inf is the
// one input on which the ranks' gather and a zero-skipping scatter could
// differ, so Execute refuses it before any rank starts, in every mode,
// naming the entry.
func TestRunMatrixRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a, err := sparse.FromTriplets(4, []int{0, 2, 2, 3}, []int{1, 0, 3, 2}, []float64{1, 0.5, 0.5, 1})
		if err != nil {
			t.Fatal(err)
		}
		a.Val[2] = bad // row 2, column 3
		for _, mode := range []dist.ExecMode{dist.ExecGoroutine, dist.ExecSocket} {
			_, err := dist.Execute(context.Background(), dist.Spec{
				Config: dist.Config{Mode: mode}, Op: dist.OpRunMatrix, Matrix: a, Procs: 2,
			})
			var nf *dist.NonFiniteError
			if !errors.As(err, &nf) || nf.Row != 2 || nf.Col != 3 || math.Float64bits(nf.Val) != math.Float64bits(bad) {
				t.Fatalf("%v, value %v: %v, want a NonFiniteError at (2, 3)", mode, bad, err)
			}
		}
	}
}

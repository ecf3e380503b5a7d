package pagerank

import (
	"math"
	"testing"

	"repro/internal/edge"
	"repro/internal/sparse"
)

// toTolerance runs PageRank on a at damping c until the 1-norm step is
// below tol or maxIterations steps ran — the data-dependent stop the
// paper replaces with a fixed 20 iterations — and returns the result.
func toTolerance(t *testing.T, a *sparse.CSR, c, tol float64, maxIterations int, seed uint64) *Result {
	t.Helper()
	res, err := Gather(a, Options{Damping: c, Iterations: maxIterations, Tolerance: tol, Seed: seed,
		Dangling: true}) // mass conservation makes tolerances comparable across c
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConvergenceStudyMonotoneInDamping(t *testing.T) {
	a := filteredMatrix(t, 31, 128, 2000)
	prev := 0
	for _, c := range []float64{0.5, 0.7, 0.85, 0.95} {
		res := toTolerance(t, a, c, 1e-10, 2000, 1)
		if res.FinalDiff >= 1e-10 {
			t.Fatalf("damping %v did not converge (%d iterations, diff %v)", c, res.Iterations, res.FinalDiff)
		}
		if res.Iterations <= prev {
			t.Errorf("iterations not increasing with damping: c=%v took %d, the previous damping %d", c, res.Iterations, prev)
		}
		prev = res.Iterations
	}
}

func TestConvergenceMatchesContractionTheory(t *testing.T) {
	// On a directed cycle the adjacency matrix is a permutation, so the
	// Google matrix's subdominant eigenvalue modulus is exactly c and
	// iterations to tolerance ≈ log(tol)/log(c).  Check within 2x.
	const n = 64
	l := cycleEdges(n)
	a, err := sparse.FromEdges(l, n)
	if err != nil {
		t.Fatal(err)
	}
	a.ScaleRows(a.OutDegrees())
	const tol = 1e-8
	theory := math.Log(tol) / math.Log(0.85)
	got := float64(toTolerance(t, a, 0.85, tol, 2000, 2).Iterations)
	if got < theory/2 || got > theory*2 {
		t.Errorf("iterations %v, contraction theory predicts ~%.0f", got, theory)
	}
}

func cycleEdges(n int) *edge.List {
	l := edge.NewList(n)
	for u := uint64(0); u < uint64(n); u++ {
		l.Append(u, (u+1)%uint64(n))
	}
	return l
}

func TestConvergenceStudyCap(t *testing.T) {
	a := filteredMatrix(t, 34, 64, 800)
	res := toTolerance(t, a, 0.99, 1e-15, 5, 1)
	if res.FinalDiff < 1e-15 {
		t.Error("5 iterations at c=0.99 cannot reach 1e-15")
	}
	if res.Iterations != 5 {
		t.Errorf("cap not respected: %d", res.Iterations)
	}
}

package pagerank

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

func TestPolicyString(t *testing.T) {
	if DanglingIgnore.String() != "ignore" || DanglingUniform.String() != "uniform" || DanglingTeleport.String() != "teleport" {
		t.Error("policy names")
	}
	if DanglingPolicy(9).String() == "" {
		t.Error("unknown policy should stringify")
	}
}

func TestDanglingBoolMapsToUniform(t *testing.T) {
	a := filteredMatrix(t, 21, 64, 600)
	viaBool, err := Scatter(a, Options{Seed: 1, Dangling: true})
	if err != nil {
		t.Fatal(err)
	}
	viaPolicy, err := Scatter(a, Options{Seed: 1, Policy: DanglingUniform})
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaBool.Rank {
		if viaBool.Rank[i] != viaPolicy.Rank[i] {
			t.Fatal("Dangling bool and DanglingUniform policy differ")
		}
	}
}

func TestTeleportValidation(t *testing.T) {
	a := filteredMatrix(t, 22, 16, 150)
	bad := make([]float64, 16)
	bad[0] = 2 // sums to 2
	if _, err := Scatter(a, Options{Teleport: bad}); err == nil {
		t.Error("non-unit teleport accepted")
	}
	neg := make([]float64, 16)
	neg[0], neg[1] = 2, -1
	if _, err := Scatter(a, Options{Teleport: neg}); err == nil {
		t.Error("negative teleport accepted")
	}
	short := []float64{1}
	if _, err := Scatter(a, Options{Teleport: short}); err == nil {
		t.Error("wrong-length teleport accepted")
	}
	if err := (Options{Policy: DanglingPolicy(7)}).Validate(); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestUniformTeleportVectorMatchesNil(t *testing.T) {
	a := filteredMatrix(t, 23, 32, 300)
	n := 32
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1.0 / float64(n)
	}
	implicit, err := Scatter(a, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Scatter(a, Options{Seed: 2, Teleport: uniform})
	if err != nil {
		t.Fatal(err)
	}
	for i := range implicit.Rank {
		if math.Abs(implicit.Rank[i]-explicit.Rank[i]) > 1e-15 {
			t.Fatal("explicit uniform teleport differs from implicit")
		}
	}
}

func TestPersonalizedTeleportBiasesRank(t *testing.T) {
	// Cycle graph (perfectly symmetric) with teleport concentrated on
	// vertex 3: vertex 3 must outrank all others.
	const n = 8
	rows := make([]int, n)
	cols := make([]int, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		rows[i], cols[i], vals[i] = i, (i+1)%n, 1
	}
	a, err := sparse.FromTriplets(n, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, n)
	v[3] = 1
	res, err := Scatter(a, Options{Seed: 1, Iterations: 200, Teleport: v, Policy: DanglingTeleport})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i != 3 && res.Rank[i] >= res.Rank[3] {
			t.Fatalf("vertex %d rank %v >= personalized vertex 3 rank %v", i, res.Rank[i], res.Rank[3])
		}
	}
}

func TestStronglyVsWeaklyPreferentialDiffer(t *testing.T) {
	// A graph with dangling vertices and a non-uniform teleport: the two
	// policies redistribute dangling mass differently, so ranks differ.
	rows := []int{0, 1}
	cols := []int{2, 2}
	a, err := sparse.FromTriplets(4, rows, cols, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	a.ScaleRows(a.OutDegrees()) // vertices 2, 3 dangle
	v := []float64{0.7, 0.1, 0.1, 0.1}
	strong, err := Scatter(a, Options{Seed: 1, Iterations: 100, Teleport: v, Policy: DanglingTeleport})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := Scatter(a, Options{Seed: 1, Iterations: 100, Teleport: v, Policy: DanglingUniform})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range strong.Rank {
		if math.Abs(strong.Rank[i]-weak.Rank[i]) > 1e-12 {
			same = false
		}
	}
	if same {
		t.Error("strongly and weakly preferential ranks identical despite non-uniform teleport")
	}
	// Both conserve total mass.
	if s := sparse.Sum(strong.Rank); math.Abs(s-1) > 1e-9 {
		t.Errorf("strongly preferential mass = %v", s)
	}
	if s := sparse.Sum(weak.Rank); math.Abs(s-1) > 1e-9 {
		t.Errorf("weakly preferential mass = %v", s)
	}
	// Strongly preferential must push more mass toward teleport-favored
	// vertex 0 than weakly preferential.
	if strong.Rank[0] <= weak.Rank[0] {
		t.Errorf("strong rank[0] %v <= weak rank[0] %v", strong.Rank[0], weak.Rank[0])
	}
}

func TestSinkPolicyLeaksMass(t *testing.T) {
	// DanglingIgnore with dangling rows: mass must strictly decrease.
	rows := []int{0}
	cols := []int{1}
	a, _ := sparse.FromTriplets(3, rows, cols, []float64{1})
	a.ScaleRows(a.OutDegrees())
	res, err := Scatter(a, Options{Seed: 1, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if s := sparse.Sum(res.Rank); s >= 1 {
		t.Errorf("ignore policy conserved mass (%v), expected leak", s)
	}
}

func TestAllEnginesSupportPolicies(t *testing.T) {
	a := filteredMatrix(t, 24, 64, 700)
	n := 64
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i+1) * 2 / float64(n*(n+1))
	}
	opt := Options{Seed: 5, Teleport: v, Policy: DanglingTeleport}
	ref, err := Scatter(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	gat, err := Gather(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runParallel(a, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Rank {
		if math.Abs(gat.Rank[i]-ref.Rank[i]) > 1e-9 || math.Abs(par.Rank[i]-ref.Rank[i]) > 1e-9 {
			t.Fatalf("engines disagree under teleport policy at %d", i)
		}
	}
	if s := sparse.Sum(ref.Rank); math.Abs(s-1) > 1e-9 {
		t.Errorf("teleport-policy mass = %v", s)
	}
}

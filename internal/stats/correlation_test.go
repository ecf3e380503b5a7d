package stats

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	rho, err := Spearman(a, b)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Errorf("perfect monotone rho = %v, %v", rho, err)
	}
	rev := []float64{50, 40, 30, 20, 10}
	rho, _ = Spearman(a, rev)
	if math.Abs(rho+1) > 1e-12 {
		t.Errorf("reversed rho = %v, want -1", rho)
	}
}

func TestSpearmanMonotoneTransformInvariant(t *testing.T) {
	g := xrand.New(1)
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = g.Float64()
		b[i] = math.Exp(3 * a[i]) // monotone transform
	}
	rho, err := Spearman(a, b)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Errorf("monotone transform rho = %v", rho)
	}
}

func TestSpearmanIndependent(t *testing.T) {
	g := xrand.New(2)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i], b[i] = g.Float64(), g.Float64()
	}
	rho, err := Spearman(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho) > 0.08 {
		t.Errorf("independent samples rho = %v, want ~0", rho)
	}
}

func TestCorrelationErrors(t *testing.T) {
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Spearman([]float64{1}, []float64{1}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance accepted")
	}
}

func TestPearsonLinear(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	r, err := pearson(a, b)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("linear Pearson = %v, %v", r, err)
	}
}

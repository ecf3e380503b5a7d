package stats

import (
	"math"
	"testing"

	"repro/internal/edge"
	"repro/internal/gensuite"
	"repro/internal/kronecker"
)

func TestDegrees(t *testing.T) {
	l := edge.NewList(3)
	l.Append(0, 1)
	l.Append(0, 2)
	l.Append(2, 0)
	out, err := OutDegrees(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 0 || out[2] != 1 {
		t.Errorf("out degrees = %v", out)
	}
	in, err := InDegrees(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if in[0] != 1 || in[1] != 1 || in[2] != 1 {
		t.Errorf("in degrees = %v", in)
	}
	bad := edge.NewList(1)
	bad.Append(9, 0)
	if _, err := OutDegrees(bad, 3); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := InDegrees(bad, 10); err == nil {
		// V = 0 is fine here; check U out of range via InDegrees on
		// swapped list instead.
		t.Log("in-degree in range as expected")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int{1, 2, 2, 3, 3, 3})
	if h[1] != 1 || h[2] != 2 || h[3] != 3 {
		t.Errorf("histogram = %v", h)
	}
	keys := h.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Errorf("keys = %v", keys)
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestFitPowerLawExact(t *testing.T) {
	// Construct an exact power law: count(d) = 1000 · d^-2.
	h := make(Histogram)
	for d := 1; d <= 64; d *= 2 {
		h[d] = 1000 * 4096 / (d * d) // scaled to stay integral
	}
	fit, err := FitPowerLaw(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope+2) > 0.01 {
		t.Errorf("slope = %v, want -2", fit.Slope)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2 = %v for exact power law", fit.R2)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw(Histogram{1: 5, 2: 3}); err == nil {
		t.Error("two points accepted")
	}
	if _, err := FitPowerLaw(Histogram{0: 5, -1: 3}); err == nil {
		t.Error("nonpositive degrees accepted")
	}
}

func TestKroneckerIsApproximatelyPowerLaw(t *testing.T) {
	cfg := kronecker.New(12, 3)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := OutDegrees(l, int(cfg.N()))
	if err != nil {
		t.Fatal(err)
	}
	// Drop zero-degree vertices, histogram the rest.
	var nz []int
	for _, d := range deg {
		if d > 0 {
			nz = append(nz, d)
		}
	}
	fit, err := FitPowerLaw(NewHistogram(nz))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope >= -0.5 || fit.Slope < -4 {
		t.Errorf("Kronecker degree slope = %v, want clearly negative power-law-like", fit.Slope)
	}
	if g := GiniCoefficient(deg); g < 0.4 {
		t.Errorf("Kronecker degree Gini = %v, want strong inequality", g)
	}
}

func TestERIsNotPowerLawSkewed(t *testing.T) {
	gen := gensuite.ER{Scale: 12, EdgeFactor: 16, Seed: 5}
	l, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	deg, err := OutDegrees(l, int(gen.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	gER := GiniCoefficient(deg)
	if gER > 0.3 {
		t.Errorf("ER degree Gini = %v, want near-uniform", gER)
	}
}

func TestPPLGiniExceedsER(t *testing.T) {
	ppl := gensuite.PPL{Scale: 10, EdgeFactor: 16}
	lp, _ := ppl.Generate()
	dp, _ := OutDegrees(lp, int(ppl.NumVertices()))
	er := gensuite.ER{Scale: 10, EdgeFactor: 16, Seed: 1}
	le, _ := er.Generate()
	de, _ := OutDegrees(le, int(er.NumVertices()))
	if GiniCoefficient(dp) <= GiniCoefficient(de)+0.2 {
		t.Errorf("PPL Gini %v not clearly above ER Gini %v", GiniCoefficient(dp), GiniCoefficient(de))
	}
}

func TestGiniExtremes(t *testing.T) {
	if g := GiniCoefficient([]int{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Errorf("uniform Gini = %v", g)
	}
	g := GiniCoefficient([]int{0, 0, 0, 100})
	if g < 0.7 {
		t.Errorf("single-hub Gini = %v, want high", g)
	}
	if GiniCoefficient(nil) != 0 || GiniCoefficient([]int{0, 0}) != 0 {
		t.Error("degenerate Gini should be 0")
	}
}

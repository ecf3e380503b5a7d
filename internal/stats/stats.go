// Package stats provides graph and distribution statistics used to validate
// the benchmark's generators: degree histograms, summary moments, and
// log-log power-law slope fitting.
//
// The Graph500 generator produces an "approximately power-law" graph; the
// PPL generator produces an exact one.  The tests and the generator
// examples use these tools to confirm the skew kernel 2's super-node
// elimination depends on, and to contrast the Erdős–Rényi control.
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/edge"
)

// OutDegrees returns the out-degree of every vertex in [0, n).
func OutDegrees(l *edge.List, n int) ([]int, error) {
	return degrees(l.U, n)
}

// InDegrees returns the in-degree of every vertex in [0, n).
func InDegrees(l *edge.List, n int) ([]int, error) {
	return degrees(l.V, n)
}

func degrees(endpoints []uint64, n int) ([]int, error) {
	deg := make([]int, n)
	for _, x := range endpoints {
		if x >= uint64(n) {
			return nil, fmt.Errorf("stats: vertex %d out of range n=%d", x, n)
		}
		deg[x]++
	}
	return deg, nil
}

// Histogram maps a value to its frequency.
type Histogram map[int]int

// NewHistogram tallies the values.
func NewHistogram(values []int) Histogram {
	h := make(Histogram)
	for _, v := range values {
		h[v]++
	}
	return h
}

// Keys returns the distinct values in increasing order.
func (h Histogram) Keys() []int {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Total returns the number of tallied observations.
func (h Histogram) Total() int {
	t := 0
	for _, c := range h {
		t += c
	}
	return t
}

// PowerLawFit is the result of a log-log linear regression on a degree
// histogram: count(degree) ≈ C · degree^Slope.
type PowerLawFit struct {
	// Slope is the fitted exponent (negative for power laws).
	Slope float64
	// Intercept is log10(C).
	Intercept float64
	// R2 is the coefficient of determination of the log-log fit.
	R2 float64
	// Points is the number of (degree, count) pairs used.
	Points int
}

// FitPowerLaw performs least-squares regression of log10(count) against
// log10(degree) over the histogram's strictly positive degrees.  At least
// three distinct degrees are required.
func FitPowerLaw(h Histogram) (PowerLawFit, error) {
	var xs, ys []float64
	for _, d := range h.Keys() {
		if d < 1 || h[d] < 1 {
			continue
		}
		xs = append(xs, math.Log10(float64(d)))
		ys = append(ys, math.Log10(float64(h[d])))
	}
	if len(xs) < 3 {
		return PowerLawFit{}, fmt.Errorf("stats: need >= 3 distinct positive degrees, have %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return PowerLawFit{}, fmt.Errorf("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n
	// R².
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := intercept + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return PowerLawFit{Slope: slope, Intercept: intercept, R2: r2, Points: len(xs)}, nil
}

// GiniCoefficient measures inequality of the degree distribution in [0, 1]:
// 0 for perfectly uniform degrees, approaching 1 for extreme hub dominance.
// Power-law graphs score high, Erdős–Rényi graphs low.
func GiniCoefficient(values []int) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	var cum, total float64
	n := float64(len(sorted))
	for i, v := range sorted {
		cum += float64(v) * (2*float64(i+1) - n - 1)
		total += float64(v)
	}
	if total == 0 {
		return 0
	}
	return cum / (n * total)
}

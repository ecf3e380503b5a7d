package stats

import (
	"fmt"
	"math"
	"sort"
)

// ranks assigns fractional ranks (average of tied positions) to values.
func ranks(values []float64) []float64 {
	n := len(values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && values[idx[j+1]] == values[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Spearman returns the Spearman rank correlation coefficient of two
// samples, handling ties by fractional ranking.  The coefficient is in
// [-1, 1]; the socialnetwork example uses it to compare PageRank with raw
// in-degree popularity.
func Spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: Spearman length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("stats: Spearman needs >= 2 samples")
	}
	return pearson(ranks(a), ranks(b))
}

// pearson computes the Pearson correlation of two equal-length samples.
func pearson(x, y []float64) (float64, error) {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, fmt.Errorf("stats: zero variance sample")
	}
	return cov / math.Sqrt(vx*vy), nil
}

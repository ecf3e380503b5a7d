package main

import (
	"math"
	"sort"
)

// summary is what the report keeps of one metric's samples: the count,
// the median, the quartiles, and the highest percentile that still has
// ten samples beyond it (none below 40 samples).
type summary struct {
	N              int     `json:"n"`
	Median         float64 `json:"median"`
	Q1             float64 `json:"q1"`
	Q3             float64 `json:"q3"`
	TailPercentile int     `json:"tail_percentile,omitempty"`
	Tail           float64 `json:"tail,omitempty"`
}

// summarize reduces samples to a summary.  No samples give the zero
// summary: the metric was not measured on this workload.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3)}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailPercentile, out.Tail = p, percentile(s, p)
	}
	return out
}

func median(samples []float64) float64 { return summarize(samples).Median }

// quantile returns the i-th of the three quartile cut points of sorted,
// computed as Python's statistics.quantiles(data, n=4) computes them
// (the default "exclusive" method), because that is the function the
// benchmark's accept/reject rule is stated in.  One sample is its own
// quartile.
func quantile(sorted []float64, i int) float64 {
	const n = 4
	ld := len(sorted)
	if ld == 1 {
		return sorted[0]
	}
	j := i * (ld + 1) / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := i*(ld+1) - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
}

// tailPercentile is the highest of the 75th, 90th, 95th and 99th
// percentiles that leaves at least ten of n samples beyond it, or 0.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p int) float64 {
	rank := int(math.Ceil(float64(p) / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// spread is the distance between the quartiles as a share of the
// median — the steadiness figure the bounds in BENCHMARK.json are
// sized against.
func spread(samples []float64) float64 {
	s := summarize(samples)
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

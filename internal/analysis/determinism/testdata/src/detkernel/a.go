// Package dist (a stand-in kernel package: the determinism analyzer
// keys on the kernel package names dist, pagerank, sparse, xsort, ckpt,
// kronecker, fastio and serve) exercises the reproducibility rules.
package dist

import (
	"math/rand" // want `math/rand in kernel package dist`
	"sort"
	"time"
)

// --- true positives ---

func mapOrder(m map[int]float64, out []float64) {
	for k, v := range m { // want `range over a map in kernel package dist`
		out[k%len(out)] += v
	}
}

func wallClock() time.Time {
	return time.Now() // want `wall-clock read in kernel package dist`
}

func elapsed(t0 time.Time) float64 {
	return time.Since(t0).Seconds() // want `wall-clock read in kernel package dist`
}

func rawSpawn(fn func()) {
	go fn() // want `raw go statement in kernel package dist`
}

func randomness() float64 {
	return rand.Float64()
}

// --- true negatives ---

// Slices iterate in index order: deterministic.
func okSliceRange(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Sorting map keys before iterating the *slice* is the documented
// remedy; the map range that collects the keys still needs a justified
// suppression in kernel code.
func okSortedKeys(m map[int]float64, out []float64) {
	keys := make([]int, 0, len(m))
	//prlint:allow determinism -- key collection only; iteration over the sorted slice below is what feeds results
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		out = append(out, m[k])
	}
	_ = out
}

// Wall-clock timing with a justification: measured seconds are
// reported, never fed into results.
func okTimedRun(run func()) float64 {
	start := time.Now() //prlint:allow determinism -- timing measurement only; the value never reaches kernel results
	run()
	//prlint:allow determinism -- timing measurement only; the value never reaches kernel results
	return time.Since(start).Seconds()
}

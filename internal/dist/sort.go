package dist

// Distributed sample sort (kernel 1), the paper's proposed parallel sort:
// each processor samples its chunk, a root picks p-1 splitters from the
// gathered sample, edges are exchanged all-to-all by key range, and each
// processor sorts its bucket locally.
//
// The implementation is carefully stable so that the distributed result
// equals the serial stable radix sort bit for bit, for every p:
//
//   - input chunks are contiguous and scanned in rank order, so every
//     bucket receives its edges in global input order;
//   - routing depends only on the start vertex, so equal keys land in the
//     same bucket;
//   - the local sort is the same stable LSD radix sort the serial kernel
//     uses, and bucket key ranges are disjoint.
//
// This file holds the schedule's local steps — sampling, splitter
// selection, bucket lookup; sortRank and splitterPhase (rank.go) are the
// schedule itself, shared with the out-of-core sort.

import (
	"slices"
	"sort"

	"repro/internal/edge"
)

// SamplesPerRank is the sample-sort oversampling factor: each processor
// contributes up to this many evenly spaced keys to the splitter sample.
// perfmodel.ParallelKernel1's splitter-exchange term uses the same
// constant so the documented cost model matches the implementation.
const SamplesPerRank = 24

// SortResult is the outcome of a distributed sort.
type SortResult struct {
	// Sorted is the globally sorted edge list (concatenated bucket
	// outputs), bit-for-bit equal to xsort.RadixByU of the input.
	Sorted *edge.List
	// Comm records the sample gather, splitter broadcast and all-to-all
	// edge exchange.
	Comm CommStats
	// Wire is the measured socket traffic (ExecSocket only, else nil).
	Wire *WireStats
}

// sampleChunk draws up to SamplesPerRank evenly spaced start-vertex keys
// from the chunk [lo, hi) of the input — one rank's local sampling step.
func sampleChunk(l *edge.List, lo, hi int) []uint64 {
	cnt := hi - lo
	if cnt == 0 {
		return nil
	}
	s := SamplesPerRank
	if s > cnt {
		s = cnt
	}
	keys := make([]uint64, s)
	for k := 0; k < s; k++ {
		keys[k] = l.U[lo+k*cnt/s]
	}
	return keys
}

// chooseSplitters sorts the gathered sample in place and selects up to
// p-1 strictly increasing splitters at even sample quantiles — the root's
// selection step.  The quantiles are taken over the raw (frequency-
// weighted) sample, so skewed key distributions place more splitters
// inside their hot ranges and the buckets balance by edge count, which is
// what the oversampling exists for.  A quantile pick that
// repeats an already-chosen splitter is skipped rather than emitted:
// repeated splitters (tiny or duplicate-heavy samples repeat quantile
// indices) would funnel nearly every edge into one bucket.  Fewer than
// p-1 splitters is a valid destRank input — the trailing buckets receive
// nothing — and the root broadcasts whatever length is chosen here.
func chooseSplitters(samples []uint64, p int) []uint64 {
	if len(samples) == 0 {
		return nil
	}
	slices.Sort(samples)
	splitters := make([]uint64, 0, p-1)
	for i := 1; i < p; i++ {
		cand := samples[i*len(samples)/p]
		if len(splitters) > 0 && cand <= splitters[len(splitters)-1] {
			continue
		}
		splitters = append(splitters, cand)
	}
	return splitters
}

// destRank returns the bucket owning key u: rank i holds keys in
// [splitters[i-1], splitters[i]) with open outer sentinels.
func destRank(splitters []uint64, u uint64) int {
	return sort.Search(len(splitters), func(i int) bool { return u < splitters[i] })
}

// Package pipeline orchestrates the four kernels of the PageRank pipeline
// benchmark: generate (K0), sort (K1), filter (K2) and PageRank (K3).
//
// Each kernel is a mathematically defined contract — files of tab-separated
// edges between K0/K1/K2, a normalized sparse matrix between K2/K3 — and
// "each kernel in the pipeline must be fully completed before the next
// kernel can begin".  The package times every kernel and reports the
// paper's metrics: edges/second with M edges for K0–K2 and 20·M edges for
// K3.
//
// Multiple implementation variants register themselves in a registry; six
// stand in for the paper's language implementations (C++, Python,
// Python/Pandas, Matlab, Octave, Julia), and two more run the distributed-
// memory pipeline of the paper's §V analysis — "dist" with the ranks run
// one at a time (the simulation) and "distgo" with the same ranks run
// concurrently — each exercising the same kernel contracts
// through a different code path (see DESIGN.md §1 and §5).
package pipeline

// Package pagerank implements kernel 3 of the PageRank pipeline benchmark:
// a fixed number of iterations of the PageRank update on the normalized
// adjacency matrix produced by kernel 2.
//
// The paper's update, in Matlab notation with row vector r and damping
// factor c = 0.85, is
//
//	a = ones(1,N) .* (1-c) ./ N
//	r = ((c .* r) * A) + (a .* sum(r,2))
//
// i.e. r ← c·(r·A) + (1-c)·sum(r)/N in every component — exactly one power
// iteration of the dense matrix c·A + (1-c)/N·𝟙.  Following the benchmark
// definition the update runs for a fixed 20 iterations rather than to
// convergence, and the dangling-node correction is deliberately omitted
// (the paper cites Ipsen & Selee that it does not materially change r);
// both behaviors are available as options.
//
// Four interchangeable engines evaluate the product r·A: scatter (CSR
// row-major), gather (via the value-free transpose, with the rank vector
// in its position labels and handed out in vertex order), the gather on
// a chunk-scheduled worker team (ParallelEngine, bit for bit the
// gather's at every width: the kernel 3 of the csr and extsort pipeline
// variants), and
// the generic GraphBLAS semiring form.  All are verified against each
// other and against the paper's dense eigenvector check.
//
// Engine is the reusable form of the iteration (NewScatterEngine,
// NewGatherEngine, NewParallelEngine, or NewEngine over custom hooks as
// the distributed runtime does): all state is allocated at construction
// and steady-state Iterate calls perform zero heap allocations, the
// allocation budget DESIGN.md §7 specifies for kernel 3 at every level
// of the stack.
package pagerank

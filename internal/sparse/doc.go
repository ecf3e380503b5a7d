// Package sparse implements the sparse matrix machinery underlying kernels
// 2 and 3 of the PageRank pipeline benchmark.
//
// Kernel 2 constructs the N×N adjacency matrix A = sparse(u, v, 1, N, N)
// where A(u,v) counts duplicate edges, computes the in-degree (column sums),
// zeroes the max-in-degree columns (super-nodes) and in-degree-1 columns
// (leaves), and divides every non-empty row by its out-degree.  Kernel 3
// repeatedly evaluates the row-vector × matrix product r·A.
//
// The package provides a CSR (compressed sparse row) matrix with float64
// values and uint32 column indices (dimension ≤ 2^32, far above feasible
// benchmark scales), builders from edge lists in several sortedness states,
// column/row reductions and scaling, transposition, dense conversion for
// validation, the scatter (row-major) product, and the gather product
// over a plain transpose or over the length-ordered one kernel 3 uses
// (Ordered), serially or on a persistent worker team.
package sparse

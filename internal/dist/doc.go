// Package dist is the distributed-memory runtime of the PageRank pipeline
// benchmark: it executes kernels 1-3 over p processor ranks with exact
// communication accounting, reproducing the parallel analysis of the
// paper's §V (distributed sample sort for kernel 1, 1D row-block
// decomposition with a rank-vector all-reduce per iteration for kernel 3).
//
// Every rank owns a contiguous block of rows (vertices), stored
// block-locally as a sparse.CSR row block (hi-lo+1 row pointers, not n+1;
// the serial kernel 2's type and methods), and a contiguous chunk of the
// input edge list.  Data crossing rank boundaries is metered by the
// collective layer; the closed-form model PredictedCommBytes reproduces
// the collective volume exactly, byte for byte, which the prreport
// command asserts.
//
// The schedule is stated once, as the program one rank runs (rank.go),
// and Execute runs it two ways (ExecMode):
//
//   - ExecGoroutine runs the p ranks as goroutines over typed channels.
//   - ExecSocket runs them as p worker processes over unix or TCP sockets
//     (DESIGN.md §13), where the measured wire bytes equal CommStats.
//
// Config.Workers adds the hybrid second level of the paper's
// decomposition: that many worker goroutines inside each rank for its
// local kernel-3 block product and kernel-1 partitioning, in every mode.
// The worker count is a pure wall-clock knob — results, CommStats and
// PredictedCommBytes are bit-for-bit invariant in it — and the
// steady-state iteration performs zero heap allocations (pooled
// collective buffers, persistent worker teams, preallocated iteration
// vectors; DESIGN.md §7).
//
// Because every mode runs the one program over the one collective layer
// with sender-side metering (DESIGN.md §5 documents the contract), their
// results are bit-for-bit identical and their CommStats are equal — to
// each other and to PredictedCommBytes.  Relative to the serial engines,
// kernel 1's output equals the serial stable radix sort exactly for every
// p, kernel 2's assembled matrix is bit-for-bit the serial kernel-2
// output, and kernel 3 matches the serial engines to ~1e-12 (floating-
// point sums re-associate across rank boundaries, the only deviation).
//
// Kernel 1 goes out of core (OpSort with Spec.Ext.RunEdges > 0; DESIGN.md
// §6) for the paper's "edge vectors exceed RAM" case: each rank spills
// bounded sorted runs to a vfs.FS, the runs are routed through the same
// metered all-to-all as sorted segments, and per-bucket k-way merges
// reproduce the serial sort bit for bit for every p and every run-buffer
// size, with the storage round trip metered separately in
// SortResult.Spill.
package dist

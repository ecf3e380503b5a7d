package dist

// Hybrid intra-rank parallelism: the MPI+OpenMP-style second level of the
// paper's decomposition.  Config.Workers spins a persistent team of worker
// goroutines inside each rank for the local kernel-3 block product, and
// runs the kernel-1 bucket partitioning and bucket sort (xsort.Sort) that
// wide, in every execution mode.  The design
// constraint is DESIGN.md §7: results must be bit-for-bit invariant in
// Workers (and therefore still bit-for-bit equal between the modes and to
// the serial baseline), and the steady-state iteration must not allocate.
//
// Both properties come from the same trick: instead of giving each worker
// a private full-length accumulator and merging partial sums (which would
// re-associate the floating-point reduction every time Workers changes),
// the rank gathers over its block's transpose and workers own disjoint
// output rows.  Each output element is then computed by exactly one
// worker, by the one serial addition sequence — so there is nothing to
// reduce and nothing that depends on the worker count.

import (
	"repro/internal/edge"
	"repro/internal/sparse"
	"repro/internal/workteam"
)

// Config configures the distributed runtime beyond the processor count.
// The zero value is goroutine ranks with serial local compute.
type Config struct {
	// Mode selects how the ranks execute (see ExecMode).
	Mode ExecMode
	// Workers is the intra-rank worker-goroutine count for each rank's
	// local compute (the kernel-3 block product, and the kernel-1 bucket
	// partitioning and bucket sort); <= 1 keeps local compute serial.  Results are
	// bit-for-bit invariant in Workers in every mode.
	Workers int
}

// workers resolves the effective intra-rank worker count.
func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// rankProduct is one rank's kernel-3 block product out = r·A, where A is
// the rank's row block: the gather over the block's length-ordered,
// value-free transpose (sparse.Ordered) on a persistent sparse.Team
// whose workers fill the term vector and then take position chunks as
// they come free.  Output element j is Aᵀ row j's gather, its terms
// added in ascending local row order — the sequence the row-major
// scatter adds them in — so the partial is the scatter's, bit for bit,
// whenever the block's values are finite (DESIGN.md §5), for every
// worker count.
type rankProduct struct {
	op   *rankOperand
	team *sparse.Team
}

// newRankProduct starts the team, max(workers, 1) wide (at one, the
// caller alone); callers must close the product when iteration ends.
func newRankProduct(op *rankOperand, workers int) *rankProduct {
	return &rankProduct{op: op, team: op.at.NewTeam(workers)}
}

// vxm computes the rank's partial product into the full-length out,
// writing every element once; it allocates nothing.
func (p *rankProduct) vxm(out, r []float64) { p.team.MxV(out, r[p.op.lo:p.op.hi]) }

// close terminates the team's goroutines.
func (p *rankProduct) close() { p.team.Close() }

// partitionChunk splits one rank's input chunk l into p destination
// buckets by splitter key range — the local half of kernel 1's all-to-all,
// shared by both runtimes.  A workteam.Team of workers scans contiguous
// sub-chunks, and each destination's per-worker parts are concatenated in
// worker order, which is sub-chunk order, which is input order: the
// bucket contents and their stability-critical ordering are exactly the
// serial scan's for every worker count.  At one worker, or on a chunk
// shorter than 2·workers, the caller scans it whole, and its one part
// list is the bucket set.
func partitionChunk(l *edge.List, splitters []uint64, p, workers int) []*edge.List {
	m := l.Len()
	if m < 2*workers {
		workers = 1
	}
	parts := make([][]*edge.List, workers)
	team := workteam.New(workers)
	team.Run(func(w int) {
		lo, hi := blockBounds(m, workers, w)
		mine := make([]*edge.List, p)
		for d := range mine {
			mine[d] = edge.NewList(0)
		}
		for i := lo; i < hi; i++ {
			mine[destRank(splitters, l.U[i])].Append(l.U[i], l.V[i])
		}
		parts[w] = mine
	})
	team.Close()
	if workers == 1 {
		return parts[0]
	}
	out := make([]*edge.List, p)
	for d := range out {
		n := 0
		for _, mine := range parts {
			n += mine[d].Len()
		}
		out[d] = edge.NewList(n)
		for _, mine := range parts {
			out[d].AppendList(mine[d])
		}
	}
	return out
}

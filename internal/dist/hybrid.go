package dist

// Hybrid intra-rank parallelism: the MPI+OpenMP-style second level of the
// paper's decomposition.  Config.Workers spins a persistent team of worker
// goroutines inside each rank for the local kernel-3 block product and the
// kernel-1 bucket partitioning, in every execution mode.  The design
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
	"sync"

	"repro/internal/edge"
	"repro/internal/sparse"
)

// Config configures the distributed runtime beyond the processor count.
// The zero value is the one-rank-at-a-time simulation with serial ranks.
type Config struct {
	// Mode selects how the ranks execute (see ExecMode).
	Mode ExecMode
	// Workers is the intra-rank worker-goroutine count for each rank's
	// local compute (the kernel-3 block product and the kernel-1 bucket
	// partitioning); <= 1 keeps local compute serial.  Results are
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
// the rank's row block: the gather over the block's length-ordered
// transpose (sparse.Ordered), serial or on a persistent sparse.Team whose
// workers own nnz-balanced position ranges.  Output element j is Aᵀ row
// j's gather, its products added in ascending local row order — the
// sequence the row-major scatter adds them in — so the partial is the
// scatter's, bit for bit, whenever the block's values are finite
// (DESIGN.md §5), for every worker count.
type rankProduct struct {
	op   *rankOperand
	team *sparse.Team // nil for a serial rank
}

// newRankProduct spawns the team when workers > 1; callers must close the
// product when iteration ends.
func newRankProduct(op *rankOperand, workers int) *rankProduct {
	p := &rankProduct{op: op}
	if workers > 1 {
		p.team = op.at.NewTeam(workers)
	}
	return p
}

// vxm computes the rank's partial product into the full-length out,
// writing every element once; it allocates nothing.
func (p *rankProduct) vxm(out, r []float64) {
	x := r[p.op.lo:p.op.hi]
	if p.team != nil {
		p.team.MxV(out, x)
		return
	}
	p.op.at.MxV(out, x)
}

// close terminates the team's goroutines, if any.
func (p *rankProduct) close() {
	if p.team != nil {
		p.team.Close()
	}
}

// partitionChunk splits the input chunk [lo, hi) into p destination
// buckets by splitter key range — the local half of kernel 1's all-to-all,
// shared by both runtimes.  With workers > 1 the chunk is scanned by
// contiguous sub-chunks concurrently and each destination's per-worker
// parts are concatenated in worker order, which is sub-chunk order, which
// is input order: the bucket contents and their stability-critical
// ordering are exactly the serial scan's for every worker count.
func partitionChunk(l *edge.List, lo, hi int, splitters []uint64, p, workers int) []*edge.List {
	out := make([]*edge.List, p)
	if workers <= 1 || hi-lo < 2*workers {
		for d := range out {
			out[d] = edge.NewList(0)
		}
		for i := lo; i < hi; i++ {
			out[destRank(splitters, l.U[i])].Append(l.U[i], l.V[i])
		}
		return out
	}
	parts := make([][]*edge.List, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wlo := lo + w*(hi-lo)/workers
		whi := lo + (w+1)*(hi-lo)/workers
		parts[w] = make([]*edge.List, p)
		for d := range parts[w] {
			parts[w][d] = edge.NewList(0)
		}
		wg.Add(1)
		//prlint:allow determinism -- partition workers own disjoint index ranges and join on wg; output order is fixed by the range split
		go func(w, wlo, whi int) {
			defer wg.Done()
			mine := parts[w]
			for i := wlo; i < whi; i++ {
				mine[destRank(splitters, l.U[i])].Append(l.U[i], l.V[i])
			}
		}(w, wlo, whi)
	}
	wg.Wait()
	for d := 0; d < p; d++ {
		n := 0
		for w := 0; w < workers; w++ {
			n += parts[w][d].Len()
		}
		out[d] = edge.NewList(n)
		for w := 0; w < workers; w++ {
			out[d].AppendList(parts[w][d])
		}
	}
	return out
}

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
// the rank transposes its block once into a compressed sparse column view
// (blockCSC) and workers gather disjoint output ranges.  Each output
// element is then computed by exactly one worker, by the exact addition
// sequence of the serial scatter product — so there is nothing to reduce
// and nothing that depends on the worker count.

import (
	"sort"
	"sync"

	"repro/internal/edge"
	"repro/internal/workteam"
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

// blockCSC is the transpose-once view of a rank's row block: the stored
// entries regrouped by column, with empty columns elided so the index
// costs O(nnz) — not the O(n) per rank the rectangular block layout
// (block.go) exists to avoid.  Within a column, entries appear in
// ascending local row order, which makes the gather of one column perform
// the exact addition sequence the serial scatter (block.vxm) performs for
// that output element.
type blockCSC struct {
	// lo is the owned global row offset: global row = lo + rowIdx.
	lo int
	// n is the global matrix dimension (the output length).
	n int
	// cols lists the present global columns, ascending.
	cols []uint32
	// colPtr delimits cols[i]'s entries: [colPtr[i], colPtr[i+1]).
	colPtr []int64
	// rowIdx and val hold each entry's local row and value.
	rowIdx []uint32
	val    []float64
}

// csc builds the transposed view of the block.  One transient full-length
// cursor array is used during construction; the result holds only
// O(nnz)-sized storage.
func (b *block) csc() *blockCSC {
	nnz := len(b.col)
	cursor := make([]int64, b.n)
	for _, c := range b.col {
		cursor[c]++
	}
	ncols := 0
	for _, cnt := range cursor {
		if cnt > 0 {
			ncols++
		}
	}
	t := &blockCSC{
		lo:     b.lo,
		n:      b.n,
		cols:   make([]uint32, ncols),
		colPtr: make([]int64, ncols+1),
		rowIdx: make([]uint32, nnz),
		val:    make([]float64, nnz),
	}
	ci := 0
	var w int64
	for c := 0; c < b.n; c++ {
		cnt := cursor[c]
		if cnt == 0 {
			continue
		}
		t.cols[ci] = uint32(c)
		t.colPtr[ci] = w
		cursor[c] = w // becomes the column's write cursor
		w += cnt
		ci++
	}
	t.colPtr[ci] = w
	// Scatter row-major entries into their columns; scanning rows in
	// ascending order leaves every column's entries in ascending local
	// row order.
	for i := 0; i < b.rows(); i++ {
		for k := b.rowPtr[i]; k < b.rowPtr[i+1]; k++ {
			c := b.col[k]
			p := cursor[c]
			t.rowIdx[p] = uint32(i)
			t.val[p] = b.val[k]
			cursor[c] = p + 1
		}
	}
	return t
}

// gatherRange computes out[jlo:jhi] of the block's partial product r·A:
// zeroes for absent columns, and for each present column cols[clo:chi]
// the gathered sum over its entries in ascending local row order,
// skipping zero r entries exactly as block.vxm does.  The addition
// sequence per output element is therefore identical to the serial
// scatter's, which is what makes the hybrid product bit-for-bit equal to
// the serial baseline for every worker partition.
func (t *blockCSC) gatherRange(out, r []float64, jlo, jhi, clo, chi int) {
	j := jlo
	for ci := clo; ci < chi; ci++ {
		c := int(t.cols[ci])
		for ; j < c; j++ {
			out[j] = 0
		}
		var s float64
		for k := t.colPtr[ci]; k < t.colPtr[ci+1]; k++ {
			ri := r[t.lo+int(t.rowIdx[k])]
			if ri == 0 {
				continue
			}
			s += float64(ri * t.val[k]) // rounded before the add: no FMA (DESIGN.md §4)
		}
		out[c] = s
		j = c + 1
	}
	for ; j < jhi; j++ {
		out[j] = 0
	}
}

// hybridSpMV is one rank's persistent intra-rank worker team for the
// kernel-3 block product: a workteam.Team whose workers own disjoint,
// entry-balanced output ranges fixed at construction, so a product is
// one signal/join round and steady-state iterations allocate nothing.
type hybridSpMV struct {
	t *blockCSC
	// jb and cb are the per-worker output and cols-index bounds
	// (len workers+1): worker w owns out[jb[w]:jb[w+1]] and the present
	// columns cols[cb[w]:cb[w+1]].
	jb, cb []int
	out, r []float64
	team   *workteam.Team
}

// newHybridSpMV transposes the block and spawns the team; callers must
// close it when iteration ends.  workers must be >= 2 (workers <= 1 stays
// on the serial block.vxm path).
func newHybridSpMV(blk *block, workers int) *hybridSpMV {
	t := blk.csc()
	h := &hybridSpMV{
		t:  t,
		jb: make([]int, workers+1),
		cb: make([]int, workers+1),
	}
	// Entry-balanced split: worker w's columns start at the first present
	// column holding entry index >= w·nnz/workers.  Boundaries are
	// monotone, so ranges are disjoint and cover everything; a worker may
	// legitimately own an empty range on tiny or degenerate blocks.
	nnz := int64(len(t.val))
	h.jb[workers] = t.n
	h.cb[workers] = len(t.cols)
	for w := 1; w < workers; w++ {
		target := int64(w) * nnz / int64(workers)
		ci := sort.Search(len(t.cols), func(i int) bool { return t.colPtr[i] >= target })
		h.cb[w] = ci
		if ci < len(t.cols) {
			h.jb[w] = int(t.cols[ci])
		} else {
			h.jb[w] = t.n
		}
	}
	h.team = workteam.New(workers, func(w int) {
		h.t.gatherRange(h.out, h.r, h.jb[w], h.jb[w+1], h.cb[w], h.cb[w+1])
	})
	return h
}

// vxm computes the rank's partial product out = r·A across the team
// (workteam.Run's happens-before edges keep the workers from racing the
// caller on out/r).
func (h *hybridSpMV) vxm(out, r []float64) {
	h.out, h.r = out, r
	h.team.Run()
}

// close terminates the worker goroutines; the team must not be used
// afterwards.
func (h *hybridSpMV) close() { h.team.Close() }

// spmvOf builds the rank's step implementation: the hybrid team when
// workers > 1 (close the returned team), the serial scatter otherwise.
func spmvOf(st *rankState, workers int) (func(out, r []float64), *hybridSpMV) {
	if workers <= 1 {
		return st.blk.vxm, nil
	}
	h := newHybridSpMV(st.blk, workers)
	return h.vxm, h
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

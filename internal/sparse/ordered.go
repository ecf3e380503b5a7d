package sparse

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/workteam"
)

// Ordered is the kernel-3 gather operand: the transpose of a matrix with
// its rows visited in order of length, and no stored values (DESIGN.md
// §7).  The non-empty rows come first, longest first and ties in
// ascending row id, then the empty rows in ascending id.  Each entry
// names a slot of a term table instead of holding a value: a product
// first fills y[t] = float64(scale(t)·x[src(t)]) for every slot t, then
// gathers out = Σ y[Col[k]] over each row.  A slot's term is the
// rounded product the valued loop formed for every entry naming it, and
// a row's entries keep ascending column order, so each row's
// accumulator receives the plain transpose's terms in the plain
// transpose's order: neither the table nor the visiting order can change
// a bit of the product.
//
// The square operand (CSR.TransposeOrdered) labels each vertex by its
// position: x and out are indexed by Label[v], so position p writes
// out[p] and the longest rows' vertices form a dense prefix of x.  A row
// block's operand (the TransposeOrdered function) keeps the block's
// local row ids in x and writes position p to out[Rows[p]].
type Ordered struct {
	// Label gives each vertex its position, the index of its element in
	// the square operand's x and out; nil for a row block's operand.
	Label []uint32
	// Rows gives each position of a row block's operand the element of
	// out it writes; nil for the square operand, whose position p writes
	// out[p].
	Rows []uint32
	// Ptr delimits the entries of the non-empty positions: position
	// p < len(Ptr)-1 holds Col[Ptr[p]:Ptr[p+1]]; the positions from
	// len(Ptr)-1 on are the empty rows.
	Ptr []int64
	// Col holds each entry's table slot.
	Col []uint32
	// Scale gives the term table one slot per row of the source matrix:
	// slot t < len(Scale) multiplies x[t], the element of the row it
	// belongs to, by Scale[t], the row's first stored value.
	Scale []float64
	// Extra and Src are the slots from m = len(Scale) on, one per further
	// distinct (row, value) pair: slot m+s multiplies x[Src[s]] by
	// Extra[s].
	Extra []float64
	Src   []uint32
}

// TransposeOrdered returns the square matrix's transpose as a
// length-ordered gather operand in position labels; it panics on a row
// block, whose operand the TransposeOrdered function builds.  It is
// TransposeOrderedWide on the caller's goroutine.
func (a *CSR) TransposeOrdered() *Ordered { return a.TransposeOrderedWide(1) }

// TransposeOrderedWide is TransposeOrdered on up to workers goroutines
// (<= 0 means GOMAXPROCS; one starts none; vectorWidth caps the width),
// with the same operand at every width.
func (a *CSR) TransposeOrderedWide(workers int) *Ordered {
	if a.Rows() != a.N {
		panic("sparse: TransposeOrdered of a row block")
	}
	return transposeOrdered(a.N, a.RowPtr, a.Col, a.Val, true, vectorWidth(workers, a.N, int64(a.NNZ())))
}

// TransposeOrdered returns the length-ordered transpose of the
// (len(rowPtr)-1)×n matrix whose rows rowPtr, col and val describe in CSR
// layout, with every column index below n — one rank's row block.  The
// transpose has n rows, written through Rows; x is indexed by the
// block's local row.  The inputs are only read.
func TransposeOrdered(n int, rowPtr []int64, col []uint32, val []float64) *Ordered {
	return transposeOrdered(n, rowPtr, col, val, false, 1)
}

// transposeOrdered builds either form on a team of width workers, each
// over a range of the source rows.  A counting pass sizes the transpose's rows
// per worker; the rows are ordered by a counting sort on their total
// length; and a scatter pass places each range's entries at (column,
// worker) offsets, where the serial pass in row order places them, and
// finds their slots: a row's first value is its own slot, and any other
// value is looked up by a linear scan over the extra slots this row has
// made so far.  Each range numbers its extra slots from zero; the ranges'
// lists are joined in order, and a last pass adds the extra slots of the
// ranges before to the extra slots a range's entries name.
func transposeOrdered(n int, rowPtr []int64, col []uint32, val []float64, labelled bool, width int) *Ordered {
	team := workteam.New(width)
	defer team.Close()
	m := len(rowPtr) - 1
	rows := splitRows(rowPtr, width)
	counts := make([][]int64, width) // each range's column lengths, then its cursors
	team.Run(func(w int) {
		cnt := make([]int64, n)
		counts[w] = cnt
		for _, j := range col[rowPtr[rows[w]]:rowPtr[rows[w+1]]] {
			cnt[j]++
		}
	})
	// The transpose's row lengths, then each row's first entry, in the
	// last worker's counts: its cursors need only the counts before it.
	last := counts[width-1]
	lens := last
	var cols []int
	if width > 1 {
		cols = split(n, width)
		team.Run(func(w int) {
			for j := cols[w]; j < cols[w+1]; j++ {
				for _, cnt := range counts[:width-1] {
					lens[j] += cnt[j]
				}
			}
		})
	}
	longest := int64(0)
	for _, l := range lens {
		longest = max(longest, l)
	}
	start := make([]int, longest+1) // rows per length, then each length's next position
	for _, l := range lens {
		start[l]++
	}
	nonEmpty := n - start[0]
	t := &Ordered{Ptr: make([]int64, nonEmpty+1), Col: make([]uint32, len(col))}
	p := 0
	for l := longest; l >= 1; l-- {
		for range start[l] {
			t.Ptr[p+1] = t.Ptr[p] + l
			p++
		}
	}
	for l, next := longest, 0; l >= 0; l-- {
		start[l], next = next, next+start[l]
	}
	if labelled {
		t.Label = make([]uint32, n)
	} else {
		t.Rows = make([]uint32, n)
	}
	for r, l := range lens {
		p := start[l]
		start[l]++
		if labelled {
			t.Label[r] = uint32(p)
		} else {
			t.Rows[p] = uint32(r)
		}
		if l > 0 {
			lens[r] = t.Ptr[p]
		}
	}
	if width > 1 {
		team.Run(func(w int) {
			for j := cols[w]; j < cols[w+1]; j++ {
				next := lens[j]
				for _, cnt := range counts[:width-1] {
					next, cnt[j] = next+cnt[j], next
				}
				last[j] = next
			}
		})
	}
	t.Scale = make([]float64, m)
	extra, src := make([][]float64, width), make([][]uint32, width)
	fix := make([][][]int64, width) // where a range after the first named an extra slot
	team.Run(func(w int) {
		cursor := counts[w]
		var ex []float64
		var sx []uint32
		var fx [][]int64 // blocks of fixBlock positions: no regrowth
		for i := rows[w]; i < rows[w+1]; i++ {
			lo, hi := rowPtr[i], rowPtr[i+1]
			if lo == hi {
				continue
			}
			slot := uint32(i)
			if labelled {
				slot = t.Label[i]
			}
			first, made := math.Float64bits(val[lo]), len(ex)
			t.Scale[slot] = val[lo]
			for k := lo; k < hi; k++ {
				s := slot
				if v := val[k]; math.Float64bits(v) != first {
					e := made
					for e < len(ex) && math.Float64bits(ex[e]) != math.Float64bits(v) {
						e++
					}
					if e == len(ex) {
						ex, sx = append(ex, v), append(sx, slot)
					}
					s = uint32(m + e)
					if w > 0 {
						if len(fx) == 0 || len(fx[len(fx)-1]) == fixBlock {
							fx = append(fx, make([]int64, 0, fixBlock))
						}
						fx[len(fx)-1] = append(fx[len(fx)-1], cursor[col[k]])
					}
				}
				q := cursor[col[k]]
				t.Col[q] = s
				cursor[col[k]] = q + 1
			}
		}
		extra[w], src[w], fix[w] = ex, sx, fx
	})
	t.Extra, t.Src = extra[0], src[0]
	if width == 1 {
		return t
	}
	base := make([]uint32, width) // the extra slots of the ranges before
	for w := 1; w < width; w++ {
		base[w] = base[w-1] + uint32(len(extra[w-1]))
		t.Extra, t.Src = append(t.Extra, extra[w]...), append(t.Src, src[w]...)
	}
	team.Run(func(w int) {
		for _, b := range fix[w] {
			for _, q := range b {
				t.Col[q] += base[w]
			}
		}
	})
	return t
}

// fixBlock is the positions per block of a range's fix list.
const fixBlock = 4096

// N returns the operand's row count: the length of a product's out.
func (t *Ordered) N() int { return len(t.Label) + len(t.Rows) }

// Footprint returns the operand's in-memory size in bytes, its arrays at
// their allocated capacity (the matrix cache's charge).
func (t *Ordered) Footprint() int64 {
	u32s := cap(t.Label) + cap(t.Rows) + cap(t.Col) + cap(t.Src)
	return int64(u32s)*4 + int64(cap(t.Ptr)+cap(t.Scale)+cap(t.Extra))*8
}

// Slots returns the term table's length: the length of a product's term
// vector y.
func (t *Ordered) Slots() int { return len(t.Scale) + len(t.Extra) }

// MxV computes out = T·x serially, filling y (of length Slots) with the
// terms; it allocates nothing.  Applied to the ordered Aᵀ it evaluates
// r·A, in position labels for the square operand.
func (t *Ordered) MxV(out, x, y []float64) {
	t.terms(y, x, 0, t.Slots())
	t.gatherRange(out, y, 0, t.N())
}

// terms fills the slots [lo, hi) of the term vector y from x.
func (t *Ordered) terms(y, x []float64, lo, hi int) {
	m := len(t.Scale)
	if end := min(hi, m); lo < end {
		scale, x, y := t.Scale[lo:end], x[lo:end], y[lo:end]
		for i, s := range scale {
			y[i] = float64(s * x[i])
		}
	}
	for s := max(lo, m); s < hi; s++ {
		y[s] = float64(t.Extra[s-m] * x[t.Src[s-m]])
	}
}

// gatherRange computes the positions [lo, hi) of out from the filled
// term vector y.  Each position writes one element of out, so disjoint
// position ranges may run concurrently with no effect on the bits.
func (t *Ordered) gatherRange(out, y []float64, lo, hi int) {
	nonEmpty := len(t.Ptr) - 1
	if end := min(hi, nonEmpty); lo < end {
		if t.Rows != nil {
			gather(out, t.Rows[lo:end], t.Ptr[lo:end+1], t.Col, y)
		} else {
			gather(out[lo:end], nil, t.Ptr[lo:end+1], t.Col, y)
		}
	}
	if t.Rows == nil {
		clear(out[max(lo, nonEmpty):max(hi, nonEmpty)])
		return
	}
	for _, r := range t.Rows[max(lo, nonEmpty):max(hi, nonEmpty)] {
		out[r] = 0
	}
}

// gather is the kernel-3 gather loop (DESIGN.md §7): for each row i that
// ptr delimits in col, it writes the row's sum Σ_k y[col[k]] to
// out[rows[i]], or to out[i] when rows is nil.  Every row is a single
// accumulator receiving its terms in ascending-k order — that addition
// sequence is the bit-for-bit contract.  Loading a group of terms before
// adding them changes which loads are in flight, not the order of the
// adds.  The rows branch is the same for a whole call, so it costs the
// predictor nothing.
func gather(out []float64, rows []uint32, ptr []int64, col []uint32, y []float64) {
	k := ptr[0]
	for i, e := range ptr[1:] {
		c := col[k:e]
		k = e
		var s float64
		for len(c) >= 8 {
			s = s + y[c[0]] + y[c[1]] + y[c[2]] + y[c[3]] + y[c[4]] + y[c[5]] + y[c[6]] + y[c[7]]
			c = c[8:]
		}
		for _, cj := range c {
			s += y[cj]
		}
		if rows != nil {
			out[rows[i]] = s
		} else {
			out[i] = s
		}
	}
}

// Split returns the parts+1 position bounds of an nnz-balanced split:
// part w computes positions [b[w], b[w+1]).  Each cut is the first
// position whose entries start at or past w/parts of the total — one
// binary search over Ptr — so the split is a pure function of the
// operand and parts, and the empty rows' zeros go to the last part.  A
// part may be empty (a hub row longer than a share, or fewer rows than
// parts).
func (t *Ordered) Split(parts int) []int {
	b := make([]int, parts+1)
	nonEmpty := len(t.Ptr) - 1
	nnz := t.Ptr[nonEmpty]
	for w := 1; w < parts; w++ {
		target := int64(w) * nnz / int64(parts)
		b[w] = sort.Search(nonEmpty, func(p int) bool { return t.Ptr[p] >= target })
	}
	b[parts] = t.N()
	return b
}

// teamChunks is the number of position chunks a Team deals out per
// worker and product: enough that a worker holding the hub rows, or one
// the host preempts, is caught up by the others taking the rest.
const teamChunks = 32

// Team computes an Ordered product on a persistent workteam.Team: started
// once, two rounds per product, so a steady-state product allocates
// nothing.  The team owns the term vector, so any number of teams may
// share one operand.  A product first fills the term vector, an even
// share of slots per worker, then deals the chunks of
// Split(workers·teamChunks) out through a counter, one at a time to
// whichever worker is free.
// Every term and every row is computed whole, by the serial loop, by
// one worker, so the result is bit-for-bit MxV's for every worker count
// and every interleaving.
type Team struct {
	fill, bounds  []int
	next          atomic.Int64 // the next chunk to deal; reset per product
	out, x, y     []float64
	terms, gather func(w int) // the product's two rounds
	team          *workteam.Team
}

// NewTeam starts a team of max(workers, 1) workers over t: at one, the
// caller alone.  Callers must Close the team when done or the goroutines
// leak.
func (t *Ordered) NewTeam(workers int) *Team {
	workers = max(workers, 1)
	slots := int64(t.Slots())
	m := &Team{fill: make([]int, workers+1), bounds: t.Split(workers * teamChunks), y: make([]float64, slots)}
	for w := range m.fill {
		m.fill[w] = int(int64(w) * slots / int64(workers))
	}
	m.terms = func(w int) { t.terms(m.y, m.x, m.fill[w], m.fill[w+1]) }
	m.gather = func(int) {
		out, y, chunks := m.out, m.y, int64(len(m.bounds)-1)
		for c := m.next.Add(1) - 1; c < chunks; c = m.next.Add(1) - 1 {
			t.gatherRange(out, y, m.bounds[c], m.bounds[c+1])
		}
	}
	m.team = workteam.New(workers)
	return m
}

// Workers returns the team's width.
func (m *Team) Workers() int { return len(m.fill) - 1 }

// MxV computes out = T·x across the team (workteam.Run's happens-before
// edges keep the workers from racing the caller on out, x and the
// counter, and the gather round from racing the terms round on y).
func (m *Team) MxV(out, x []float64) {
	m.out, m.x = out, x
	m.team.Run(m.terms)
	m.next.Store(0)
	m.team.Run(m.gather)
}

// Close terminates the worker goroutines; the team must not be used
// afterwards.
func (m *Team) Close() { m.team.Close() }

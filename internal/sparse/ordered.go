package sparse

import (
	"sort"

	"repro/internal/workteam"
)

// Ordered is the kernel-3 gather operand: the transpose of a matrix with
// its rows visited in order of length (DESIGN.md §7).  Position p holds
// row Rows[p] of the transpose; the non-empty rows come first, longest
// first and ties in ascending row id, then the empty rows in ascending
// id.  Entries keep ascending column order inside each row, so a row's
// products meet its accumulator in exactly the order the plain transpose
// adds them: visiting rows in another order cannot change a bit of the
// product.  What it changes is the control flow — consecutive rows of one
// length take the same path through the loop, which the branch predictor
// then learns.
type Ordered struct {
	// Rows lists every row of the transpose exactly once, by position.
	Rows []uint32
	// Ptr delimits the entries of the non-empty positions: position
	// p < len(Ptr)-1 holds Col/Val[Ptr[p]:Ptr[p+1]]; the positions from
	// len(Ptr)-1 on are the empty rows.
	Ptr []int64
	// Col holds each entry's column (a row of the original matrix).
	Col []uint32
	// Val holds each entry's value.
	Val []float64
}

// TransposeOrdered returns Aᵀ as a length-ordered gather operand.
func (a *CSR) TransposeOrdered() *Ordered {
	return TransposeOrdered(a.N, a.RowPtr, a.Col, a.Val)
}

// TransposeOrdered returns the length-ordered transpose of the
// (len(rowPtr)-1)×n matrix whose rows rowPtr, col and val describe in CSR
// layout, with every column index below n — a square CSR, or one rank's
// row block of it.  The transpose has n rows.  One counting pass over col
// sizes the rows; they are ordered by a counting sort on length, and one
// scatter pass in row order places the entries.  The inputs are only
// read.
func TransposeOrdered(n int, rowPtr []int64, col []uint32, val []float64) *Ordered {
	cursor := make([]int64, n) // row lengths, then each row's write cursor
	longest := int64(0)
	for _, c := range col {
		cursor[c]++
		longest = max(longest, cursor[c])
	}
	// start[l] is the first position of the rows of length l: after every
	// longer row, ahead of every shorter one.
	start := make([]int, longest+2)
	for _, l := range cursor {
		start[l]++
	}
	for l, next := longest, 0; l >= 0; l-- {
		start[l], next = next, next+start[l]
	}
	t := &Ordered{Rows: make([]uint32, n), Col: make([]uint32, len(col)), Val: make([]float64, len(col))}
	for r, l := range cursor {
		t.Rows[start[l]] = uint32(r)
		start[l]++
	}
	nonEmpty := start[1] // the length-1 block's end: the first empty row's position
	t.Ptr = make([]int64, nonEmpty+1)
	for p, r := range t.Rows[:nonEmpty] {
		l := cursor[r]
		cursor[r] = t.Ptr[p]
		t.Ptr[p+1] = t.Ptr[p] + l
	}
	for i := 0; i+1 < len(rowPtr); i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			q := cursor[col[k]]
			t.Col[q] = uint32(i)
			t.Val[q] = val[k]
			cursor[col[k]] = q + 1
		}
	}
	return t
}

// N returns the operand's row count: the length of a product's out.
func (t *Ordered) N() int { return len(t.Rows) }

// Footprint returns the operand's in-memory size in bytes, its four
// arrays at their allocated capacity (the staged cache's charge).
func (t *Ordered) Footprint() int64 {
	return int64(cap(t.Rows))*4 + int64(cap(t.Ptr))*8 + int64(cap(t.Col))*4 + int64(cap(t.Val))*8
}

// MxV computes out = T·x, writing every element of out exactly once; it
// allocates nothing.  Applied to the ordered Aᵀ it evaluates r·A.
func (t *Ordered) MxV(out, x []float64) { t.MxVRange(out, x, 0, len(t.Rows)) }

// MxVRange computes the rows at positions [lo, hi) of out = T·x.  Each
// row is written by the one position that holds it, so disjoint position
// ranges may run concurrently with no effect on the bits.
func (t *Ordered) MxVRange(out, x []float64, lo, hi int) {
	nonEmpty := len(t.Ptr) - 1
	if end := min(hi, nonEmpty); lo < end {
		gather(out, t.Rows[lo:end], t.Ptr[lo:end+1], t.Col, t.Val, x)
	}
	for _, r := range t.Rows[max(lo, nonEmpty):max(hi, nonEmpty)] {
		out[r] = 0
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
	nonEmpty, nnz := len(t.Ptr)-1, int64(len(t.Col))
	for w := 1; w < parts; w++ {
		target := int64(w) * nnz / int64(parts)
		b[w] = sort.Search(nonEmpty, func(p int) bool { return t.Ptr[p] >= target })
	}
	b[parts] = len(t.Rows)
	return b
}

// Team computes an Ordered product on a persistent worker team over the
// operand's nnz-balanced split: spawned once, signalled per product, so
// a steady-state product allocates nothing.  Every row is computed by
// the one worker owning its position, by the serial loop, so the result
// is bit-for-bit MxV's for every worker count.
type Team struct {
	t      *Ordered
	bounds []int
	out, x []float64
	team   *workteam.Team
}

// NewTeam spawns workers goroutines over t.  Callers must Close the team
// when done or the goroutines leak.
func (t *Ordered) NewTeam(workers int) *Team {
	m := &Team{t: t, bounds: t.Split(workers)}
	m.team = workteam.New(workers, func(w int) {
		m.t.MxVRange(m.out, m.x, m.bounds[w], m.bounds[w+1])
	})
	return m
}

// MxV computes out = T·x across the team (workteam.Run's happens-before
// edges keep the workers from racing the caller on out and x).
func (m *Team) MxV(out, x []float64) {
	m.out, m.x = out, x
	m.team.Run()
}

// Close terminates the worker goroutines; the team must not be used
// afterwards.
func (m *Team) Close() { m.team.Close() }

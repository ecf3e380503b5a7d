package sparse

import "fmt"

// Builder builds the counting adjacency matrix of an edge stream sorted by
// start vertex from pieces of the stream, several at once: kernel 2 of the
// variants that read kernel 1's sorted files (DESIGN.md §9 "The ordered
// ring").  It is a fastio.PieceSink.  A worker builds each piece's rows by
// the one row rule — range and order checks, then each row's columns
// sorted (sortUint32) and their duplicates counted (appendRuns) — into the
// Col and Val reserved for the stream, from the piece's edge offset on, or
// into the piece's own slot when they do not fit there.  The caller takes
// the pieces in stream order: it checks the order across each boundary,
// merges a row that straddles two pieces (the counts add exactly), and
// moves the piece's entries down behind the ones before.  So the matrix,
// and the first bad edge's error, do not depend on where the pieces were
// cut or how many were built at once.  Memory beyond the matrix is the
// slots' rows and a straddling row's merge.
type Builder struct {
	n          int
	rowPtr     []int64
	col, res   []uint32  // the entries, nnz placed and the rest room; col as Start found it
	val, resV  []float64 // their values, likewise
	nnz        int
	row        int64 // the last row placed; -1 before the first
	rowAt      int   // its first entry
	slots      []piece
	mcol       []uint32 // a straddling row's merge
	mval       []float64
	oneAtATime bool // one slot: a piece is taken before the next is built
}

// piece is one slot's built piece.
type piece struct {
	col      []uint32 // its entries: a window of the room, or of own
	val      []float64
	rows     []uint32 // its rows, ascending
	ends     []int    // each row's end in col
	first    uint64   // its first start vertex
	edges    int
	firstBad bool     // its first edge failed the range check
	own      []uint32 // room for entries that do not fit the reserved room
	ownV     []float64
	scratch  []uint32 // sortUint32's
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) (*Builder, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	return &Builder{n: n, rowPtr: make([]int64, n+1), row: -1}, nil
}

// Reserve makes room for m more entries, so that a caller who knows the
// stream's length (an upper bound on NNZ) pays for Col and Val once, and
// the pieces land in place.  Call it before Start.
func (b *Builder) Reserve(m int) {
	col, val := make([]uint32, b.nnz+m), make([]float64, b.nnz+m)
	copy(col, b.col[:b.nnz])
	copy(val, b.val[:b.nnz])
	b.col, b.val = col, val
}

// Start implements fastio.PieceSink: it readies slots slots.
func (b *Builder) Start(slots int) {
	b.slots = make([]piece, slots)
	b.res, b.resV = b.col, b.val
	b.oneAtATime = slots == 1
}

// Piece implements fastio.PieceSink: it builds the rows of the edges
// (us[i], vs[i]), which have off edges of the stream before them.  The
// error names the piece's first bad edge.
func (b *Builder) Piece(slot, off int, us, vs []uint64) error {
	p := &b.slots[slot]
	if cap(p.rows) < len(us) { // a piece has no more rows than edges
		p.rows, p.ends = make([]uint32, 0, len(us)), make([]int, 0, len(us))
	}
	p.rows, p.ends, p.edges, p.firstBad = p.rows[:0], p.ends[:0], len(us), false
	if len(us) > 0 {
		p.first = us[0]
	}
	// The room from off on holds the piece: it has no more entries than
	// edges.  One slot at a time writes behind the entries placed.
	col, val, at := b.res, b.resV, off
	if b.oneAtATime {
		col, val, at = b.col, b.val, b.nnz
	}
	if end := at + len(us); end <= len(col) {
		col, val = col[at:at:end], val[at:at:end]
	} else {
		if cap(p.own) < len(us) {
			p.own, p.ownV = make([]uint32, len(us)), make([]float64, len(us))
		}
		col, val = p.own[:0], p.ownV[:0]
	}
	var err error
	p.col, p.val, err = p.build(b.n, us, vs, col, val)
	return err
}

// build appends the rows of the piece's edges to col, which has room for
// one entry per edge, and val, stopping at the first bad edge.  A row's
// columns are staged, sorted and counted in the room behind the entries
// before it: its runs are never more than its edges.
func (p *piece) build(n int, us, vs []uint64, col []uint32, val []float64) ([]uint32, []float64, error) {
	vs = vs[:len(us)]
	for lo := 0; lo < len(us); {
		u := us[lo]
		hi := lo + 1
		for hi < len(us) && us[hi] == u {
			hi++
		}
		if u >= uint64(n) {
			p.firstBad = lo == 0
			return col, val, edgeError(n, u, vs[lo], -1)
		}
		row := col[len(col) : len(col)+hi-lo]
		for k, v := range vs[lo:hi] {
			if v >= uint64(n) {
				p.firstBad = lo+k == 0
				return col, val, edgeError(n, u, v, -1)
			}
			row[k] = uint32(v)
		}
		if hi < len(us) && us[hi] < u {
			return col, val, edgeError(n, us[hi], vs[hi], int64(u))
		}
		if len(row) >= radixRowLen && len(p.scratch) < len(row) {
			p.scratch = make([]uint32, len(us)) // as long as any row of the piece
		}
		sortUint32(row, p.scratch)
		col, val = appendRuns(col, val, row)
		p.rows, p.ends = append(p.rows, uint32(u)), append(p.ends, len(col))
		lo = hi
	}
	return col, val, nil
}

// edgeError is the row rule's verdict on the edge (u, v) after the start
// vertex prev (-1: none): nil, or the error that names it.
func edgeError(n int, u, v uint64, prev int64) error {
	if u >= uint64(n) || v >= uint64(n) {
		return fmt.Errorf("sparse: edge (%d,%d) out of range N=%d", u, v, n)
	}
	if int64(u) < prev {
		return fmt.Errorf("sparse: start vertex %d after %d (input not sorted)", u, prev)
	}
	return nil
}

// Take implements fastio.PieceSink: it places the piece in slot behind
// the entries placed, or returns its first bad edge's error.  The
// piece's first edge comes before its error unless that edge is the
// error, so it is checked against the last row placed first.
func (b *Builder) Take(slot int, err error) error {
	p := &b.slots[slot]
	if p.edges > 0 && !p.firstBad {
		if oerr := edgeError(b.n, p.first, 0, b.row); oerr != nil {
			return oerr
		}
	}
	if err != nil {
		return err
	}
	if len(p.rows) == 0 {
		return nil
	}
	col, val, rows, ends, from := p.col, p.val, p.rows, p.ends, 0
	if int64(rows[0]) == b.row {
		b.mergeRow(col[:ends[0]], val[:ends[0]])
		b.rowPtr[b.row+1] = int64(b.nnz)
		from, rows, ends = ends[0], rows[1:], ends[1:]
	}
	if len(rows) == 0 {
		return nil
	}
	base := b.nnz - from // entry e of the piece lands at base+e
	b.place(col[from:ends[len(ends)-1]], val[from:ends[len(ends)-1]])
	for j, r := range rows {
		b.rowPtr[r+1] = int64(base + ends[j])
	}
	b.row, b.rowAt = int64(rows[len(rows)-1]), base+from
	if len(ends) > 1 {
		b.rowAt = base + ends[len(ends)-2]
	}
	return nil
}

// place appends col and val behind the entries placed, moving them down
// from where a worker built them.
func (b *Builder) place(col []uint32, val []float64) {
	end := b.nnz + len(col)
	if end > len(b.col) {
		// Only a piece built in its own slot gets here: the ones in flight
		// behind it are past the room too, so none writes into b.col.
		c, v := make([]uint32, max(end, 2*len(b.col))), make([]float64, max(end, 2*len(b.col)))
		copy(c, b.col[:b.nnz])
		copy(v, b.val[:b.nnz])
		b.col, b.val = c, v
	}
	if len(col) > 0 && &b.col[b.nnz] != &col[0] {
		copy(b.col[b.nnz:end], col)
		copy(b.val[b.nnz:end], val)
	}
	b.nnz = end
}

// mergeRow merges a piece's first row, (col, val), into the last row
// placed, which it continues: the union of their columns in order, the
// counts of a column in both added.
func (b *Builder) mergeRow(col []uint32, val []float64) {
	ac, av := b.col[b.rowAt:b.nnz], b.val[b.rowAt:b.nnz]
	if n := len(ac) + len(col); cap(b.mcol) < n {
		b.mcol, b.mval = make([]uint32, 0, 2*n), make([]float64, 0, 2*n)
	}
	mc, mv := b.mcol[:0], b.mval[:0]
	i, j := 0, 0
	for i < len(ac) && j < len(col) {
		switch {
		case ac[i] < col[j]:
			mc, mv = append(mc, ac[i]), append(mv, av[i])
			i++
		case ac[i] > col[j]:
			mc, mv = append(mc, col[j]), append(mv, val[j])
			j++
		default:
			mc, mv = append(mc, ac[i]), append(mv, av[i]+val[j])
			i, j = i+1, j+1
		}
	}
	mc, mv = append(append(mc, ac[i:]...), col[j:]...), append(append(mv, av[i:]...), val[j:]...)
	b.mcol, b.mval = mc, mv
	b.nnz = b.rowAt
	b.place(mc, mv)
}

// Finish completes construction and returns the matrix, whose Col and
// Val keep the reserved capacity.  The builder must not be used
// afterwards.
func (b *Builder) Finish() *CSR {
	for i := 0; i < b.n; i++ {
		if b.rowPtr[i+1] < b.rowPtr[i] {
			b.rowPtr[i+1] = b.rowPtr[i]
		}
	}
	return &CSR{N: b.n, RowPtr: b.rowPtr, Col: b.col[:b.nnz], Val: b.val[:b.nnz]}
}

// sortedPiece is the edges a SortedBuilder stages per piece.
const sortedPiece = 4096

// SortedBuilder assembles a CSR incrementally from an edge stream sorted by
// start vertex, one edge at a time: a one-slot Builder fed pieces of
// sortedPiece edges.  Duplicate (u, v) pairs accumulate into counts exactly
// as in FromEdges.  Memory use is O(N + NNZ): the matrix under
// construction plus one piece of staging.
type SortedBuilder struct {
	b      *Builder
	us, vs []uint64 // the staged piece
	prev   int64    // the last start vertex added; -1 before the first
}

// NewSortedBuilder returns a builder for an n×n matrix.
func NewSortedBuilder(n int) (*SortedBuilder, error) {
	b, err := NewBuilder(n)
	if err != nil {
		return nil, err
	}
	b.Start(1)
	return &SortedBuilder{b: b, us: make([]uint64, 0, sortedPiece), vs: make([]uint64, 0, sortedPiece), prev: -1}, nil
}

// Reserve makes room for m more edges' entries, so that a caller who knows
// the stream's length (an upper bound on NNZ) pays for Col and Val once,
// not by doubling.
func (s *SortedBuilder) Reserve(m int) { s.b.Reserve(m) }

// Add appends the edge (u, v).  u must be non-decreasing across calls; a
// rejected edge is not added.
func (s *SortedBuilder) Add(u, v uint64) error {
	if err := edgeError(s.b.n, u, v, s.prev); err != nil {
		return err
	}
	s.prev = int64(u)
	s.us, s.vs = append(s.us, u), append(s.vs, v)
	if len(s.us) == sortedPiece {
		s.flush()
	}
	return nil
}

// flush builds and places the staged piece.
func (s *SortedBuilder) flush() {
	if err := s.b.Take(0, s.b.Piece(0, 0, s.us, s.vs)); err != nil {
		panic(err) // unreachable: Add checked every edge
	}
	s.us, s.vs = s.us[:0], s.vs[:0]
}

// Finish completes construction and returns the matrix.  The builder must
// not be used afterwards.
func (s *SortedBuilder) Finish() *CSR {
	s.flush()
	return s.b.Finish()
}

package sparse

import (
	"sort"

	"repro/internal/workteam"
)

// vectorWidth returns the width of a pass over nnz entries that gives
// each worker but the first an n-element vector of its own:
// workteam.Width(workers), capped so that those vectors hold at most one
// element per eight entries.  At 8 bytes an element that is a twelfth of
// the matrix's 12 bytes an entry, on any number of cores: a Kronecker
// graph's ~14 entries a row allow two workers.
func vectorWidth(workers, n int, nnz int64) int {
	w := workteam.Width(workers)
	if n > 0 {
		w = min(w, 1+int(nnz/(8*int64(n))))
	}
	return w
}

// splitRows returns the parts+1 bounds of an nnz-balanced split of the
// rows rowPtr delimits: part w is the rows [b[w], b[w+1]), the first of
// them the first row whose entries start at or past w/parts of the total.
func splitRows(rowPtr []int64, parts int) []int {
	b := make([]int, parts+1)
	rows := len(rowPtr) - 1
	for w := 1; w < parts; w++ {
		target := int64(w) * rowPtr[rows] / int64(parts)
		b[w] = sort.Search(rows, func(i int) bool { return rowPtr[i] >= target })
	}
	b[parts] = rows
	return b
}

// split returns the parts+1 bounds of an even split of [0, n).
func split(n, parts int) []int {
	b := make([]int, parts+1)
	for w := range b {
		b[w] = int(int64(w) * int64(n) / int64(parts))
	}
	return b
}

// FilterStats reports what kernel 2's filtering removed.
type FilterStats struct {
	// MaxInDegree is max(din) before filtering.
	MaxInDegree float64
	// SuperNodeColumns is the number of columns with din == max(din).
	SuperNodeColumns int
	// LeafColumns is the number of columns with din == 1.
	LeafColumns int
	// EntriesZeroed is the number of stored entries removed.
	EntriesZeroed int
}

// Kernel2Filter performs the filtering and normalization steps of kernel
// 2 on a freshly built counting adjacency matrix, in place, on up to
// workers goroutines (<= 0 means GOMAXPROCS; one starts none; vectorWidth
// caps the width):
//
//	din = sum(A,1)
//	A(:, din == max(din)) = 0   // eliminate super-nodes
//	A(:, din == 1)        = 0   // eliminate leaves
//	dout = sum(A,2)
//	A(i,:) = A(i,:) / dout(i) for dout(i) > 0
//
// Explicit zeros are compacted away before normalization.  Each worker
// sums the in-degrees of a row range, the partial sums add up by column
// range, and then each worker zeroes, compacts and scales its rows behind
// the range's first entry; the caller moves the ranges together.  A row's
// out-degree is the serial one at any width, and so is din while the
// values are integer counts (their partial sums are exact), so the
// matrix and the statistics are the serial bits.
func (a *CSR) Kernel2Filter(workers int) FilterStats {
	return a.kernel2Filter(vectorWidth(workers, a.N, int64(a.NNZ())))
}

// kernel2Filter is Kernel2Filter on width workers.
func (a *CSR) kernel2Filter(width int) FilterStats {
	team := workteam.New(width)
	defer team.Close()
	rows := splitRows(a.RowPtr, width)
	din := make([]float64, a.N)
	part := make([][]float64, width)
	part[0] = din
	for w := 1; w < width; w++ {
		part[w] = make([]float64, a.N)
	}
	team.Run(func(w int) {
		d, lo, hi := part[w], a.RowPtr[rows[w]], a.RowPtr[rows[w+1]]
		val := a.Val[lo:hi]
		for k, col := range a.Col[lo:hi] {
			d[col] += val[k]
		}
	})
	if width > 1 {
		cols := split(a.N, width)
		team.Run(func(w int) {
			for j := cols[w]; j < cols[w+1]; j++ {
				s := din[j]
				for _, d := range part[1:] {
					s += d[j]
				}
				din[j] = s
			}
		})
	}
	var st FilterStats
	mask, maxDin, superNodes, leaves := Kernel2Mask(din)
	st.MaxInDegree, st.SuperNodeColumns, st.LeafColumns = maxDin, superNodes, leaves

	from := make([]int64, width) // each range's first entry, then how far it moves down
	end := make([]int64, width)  // each range's kept entries' end
	zeroed := make([]int, width)
	for w := range from {
		from[w] = a.RowPtr[rows[w]]
	}
	team.Run(func(w int) { end[w], zeroed[w] = a.filterRows(mask, rows[w], rows[w+1], from[w]) })
	nnz := int64(0)
	for w := range from {
		if nnz != from[w] {
			copy(a.Col[nnz:], a.Col[from[w]:end[w]])
			copy(a.Val[nnz:], a.Val[from[w]:end[w]])
		}
		st.EntriesZeroed += zeroed[w]
		nnz, from[w] = nnz+end[w]-from[w], from[w]-nnz
	}
	if nnz != end[width-1] {
		team.Run(func(w int) {
			for i := rows[w]; i < rows[w+1]; i++ {
				a.RowPtr[i+1] -= from[w]
			}
		})
	}
	a.Col, a.Val = a.Col[:nnz], a.Val[:nnz]
	return st
}

// FilterRows zeroes the columns mask marks, drops the explicit zeros and
// divides each row by its out-degree, in place on the caller's goroutine,
// and returns the entries zeroed: Kernel2Filter's second half, for a row
// block whose mask comes from in-degrees summed over every block.
func (a *CSR) FilterRows(mask []bool) int {
	end, zeroed := a.filterRows(mask, 0, a.Rows(), 0)
	a.Col, a.Val = a.Col[:end], a.Val[:end]
	return zeroed
}

// filterRows zeroes the masked columns of the rows [lo, hi), whose
// entries start at entry at, compacts their non-zero entries there, and
// scales each row by its out-degree.  It writes RowPtr[lo+1:hi+1] and
// reads no other row pointer.  It returns the kept entries' end and the
// entries zeroed.
func (a *CSR) filterRows(mask []bool, lo, hi int, at int64) (int64, int) {
	w, read, zeroed := at, at, 0
	for i := lo; i < hi; i++ {
		first, end := w, a.RowPtr[i+1]
		var s float64 // the row's out-degree
		for ; read < end; read++ {
			v := a.Val[read]
			if v == 0 {
				continue
			}
			c := a.Col[read]
			if mask[c] {
				zeroed++
				continue
			}
			a.Col[w], a.Val[w] = c, v
			s += v
			w++
		}
		if s != 0 {
			inv := 1 / s
			for k := first; k < w; k++ {
				a.Val[k] *= inv
			}
		}
		a.RowPtr[i+1] = w
	}
	return w, zeroed
}

package fabric

// Control payloads: the field-by-field little-endian encoding of every
// control message — the handshake's join, welcome and mesh hello and the
// distributed runtime's job and outcome.  Each Append function has one
// Reader method that reads it back; DESIGN.md §13 tables the fields.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/edge"
)

// AppendU64 appends v as a u64 field.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendInt appends v as an int field.
func AppendInt(b []byte, v int) []byte { return AppendU64(b, uint64(int64(v))) }

// AppendF64 appends v as an f64 field.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBool appends v as a bool field.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s as a string field.
func AppendString(b []byte, s string) []byte {
	return append(AppendU64(b, uint64(len(s))), s...)
}

// AppendFloats appends v as a floats field; nil and empty encode alike.
func AppendFloats(b []byte, v []float64) []byte {
	return AppendVec(AppendU64(b, uint64(len(v))), v)
}

// AppendEdgeList appends l as an edges field.
func AppendEdgeList(b []byte, l *edge.List) []byte {
	return AppendEdges(AppendU64(b, uint64(l.Len())), l)
}

// Reader consumes a control payload field by field.  Every read is
// bounds-checked against what is left of the payload, and every count is
// checked against it before anything is allocated from it, so a forged
// length can neither panic the reader nor size an allocation.  The first
// failure sticks: later reads return zero values, and Close reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) *Reader { return &Reader{b: payload} }

// Failf records a failure (the first one wins), so a decoder can fold
// its own checks into the Reader's error.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err is the first failure so far, nil if none.
func (r *Reader) Err() error { return r.err }

// Close reports the first failure, or trailing bytes if the payload held
// more than was read.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// take consumes n bytes, nil once failed.
func (r *Reader) take(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.Failf("truncated %s: %d bytes wanted, %d left", what, n, len(r.b))
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// U64 reads a u64 field.
func (r *Reader) U64() uint64 {
	if p := r.take(8, "u64"); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Int reads an int field, failing on a value this platform's int cannot
// hold.
func (r *Reader) Int() int {
	v := int64(r.U64())
	if int64(int(v)) != v {
		r.Failf("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// F64 reads an f64 field.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a bool field, failing on any byte but 0 or 1.
func (r *Reader) Bool() bool {
	p := r.take(1, "bool")
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.Failf("bool byte %d", p[0])
	}
	return p[0] == 1
}

// Str reads a string field.
func (r *Reader) Str() string { return string(r.take(uint64(r.count(1, "string byte")), "string")) }

// count reads a u64 element count that the rest of the payload must be
// able to hold at size bytes per element: the check every sized
// allocation waits for.
func (r *Reader) count(size uint64, what string) int {
	n := r.U64()
	if r.err == nil && n > uint64(len(r.b))/size {
		r.Failf("%s count %d exceeds the %d bytes left", what, n, len(r.b))
		return 0
	}
	return int(n)
}

// Floats reads a floats field; a zero count reads as nil.
func (r *Reader) Floats() []float64 {
	n := r.count(8, "float")
	if n == 0 {
		return nil
	}
	p := r.take(8*uint64(n), "floats")
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return v
}

// Edges reads an edges field.
func (r *Reader) Edges() *edge.List {
	n := r.count(16, "edge")
	p := r.take(16*uint64(n), "edges")
	l := edge.Make(n)
	for i := range l.U {
		l.U[i] = binary.LittleEndian.Uint64(p[16*i:])
		l.V[i] = binary.LittleEndian.Uint64(p[16*i+8:])
	}
	return l
}

// Block reads an AppendBlock field: the counts must fit the payload
// before anything is allocated from them, and the row pointers must
// describe the entries — start at 0, never decrease, end at the entry
// count.
func (r *Reader) Block() (rowPtr []int64, col []uint32, val []float64) {
	rows, nnz := r.U64(), r.U64()
	left := uint64(len(r.b))
	if r.err == nil && (rows >= left/8 || nnz > left/12 || 8*(rows+1)+12*nnz > left) {
		r.Failf("block of %d rows and %d entries exceeds the %d bytes left", rows, nnz, left)
	}
	if r.err != nil {
		return nil, nil, nil
	}
	p := r.take(8*(rows+1), "row pointers")
	rowPtr = make([]int64, rows+1)
	for i := range rowPtr {
		rowPtr[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
		if i == 0 && rowPtr[0] != 0 || i > 0 && rowPtr[i] < rowPtr[i-1] {
			r.Failf("block row pointers out of order at row %d", i)
			return nil, nil, nil
		}
	}
	if rowPtr[rows] != int64(nnz) {
		r.Failf("block row pointers end at %d, want the entry count %d", rowPtr[rows], nnz)
		return nil, nil, nil
	}
	p = r.take(4*nnz, "columns")
	col = make([]uint32, nnz)
	for i := range col {
		col[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	p = r.take(8*nnz, "values")
	val = make([]float64, nnz)
	for i := range val {
		val[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return rowPtr, col, val
}

// Package fastio implements the edge-file formats of the PageRank pipeline
// benchmark and fast primitives for reading and writing them.
//
// The paper specifies that kernels 0 and 1 exchange edges through files of
// tab-separated numeric strings, one "u\tv\n" record per edge, striped over
// an implementer-chosen number of files on non-volatile storage.  This
// package provides:
//
//   - allocation-free decimal integer formatting;
//   - four interchangeable codecs: TSV (the paper's format, hand-optimized),
//     NaiveTSV (the same format via strconv/bufio, standing in for the
//     paper's interpreted-language implementations), Binary (16-byte
//     little-endian records, used by the text-vs-binary ablation), and
//     Packed (block-structured varint + delta encoding that exploits the
//     sortedness kernel 1 produces);
//   - one batch interface for every codec (EdgeSink, EdgeSource) and its
//     checked entry points WriteEdges/ReadEdges;
//   - codec resolution by name (CodecByName) and by on-disk content
//     (Detect, DetectStriped);
//   - striped writing and reading of edge lists across N files of a
//     vfs.FS, in pieces that one encoder or decoder per codec runs on a
//     workteam.Ring: whole lists on a ring of workers (WriteStripedWide,
//     ReadStripedInto, ReadPieces), and streams (StripedSink,
//     StripedSource) on a ring of one goroutine that encodes behind or
//     decodes ahead of its caller.
package fastio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/edge"
	"repro/internal/vfs"
	"repro/internal/workteam"
)

// AppendUint appends the decimal representation of v to dst and returns the
// extended slice.  It is equivalent to strconv.AppendUint(dst, v, 10),
// through the routine the TSV encoder formats its records with.
func AppendUint(dst []byte, v uint64) []byte {
	i := len(dst)
	dst = slices.Grow(dst, maxDigits)
	return dst[:putUint(dst[:i+maxDigits], i, v)]
}

// maxDigits is the decimal width of the largest uint64.
const maxDigits = 20

// digitPairs holds the two-digit decimal forms of 0..99 back to back.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// moreDigits[d] is the smallest value with more than d decimal digits:
// 10^d, except that 0 has one digit too.
var moreDigits = [maxDigits]uint64{0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// putUint writes the decimal form of v into b at offset i and returns the
// offset past it.  b must have room for maxDigits bytes from i, even when v
// takes fewer: a value below 10⁸ is stored as one word of eight bytes
// (shortDigits), of which the bytes past its last digit are left for
// whatever is written next.
func putUint(b []byte, i int, v uint64) int {
	if v >= 1e8 {
		return putLong(b, i, v)
	}
	w, d := shortDigits(v)
	binary.LittleEndian.PutUint64(b[i:], w)
	return i + d
}

// shortDigits returns the decimal form of v < 10⁸ as the bytes of a
// little-endian word, first digit lowest, and its digit count d.  v is
// split into lanes of 4+4 digits (32 bits each), each lane into 2+2
// (16 bits), each of those into 1+1 (8 bits), which leaves the eight
// zero-padded digits in byte order; every division by 100 or 10 is a
// multiply-shift that is exact below the lane's bound.  Then the 8−d
// leading zeros are shifted out (the last digit always stays) and '0' is
// added to each byte.
func shortDigits(v uint64) (w uint64, d int) {
	x := v/10000 | v%10000<<32
	q := x * 5243 >> 19 & 0x0000007f_0000007f // x/100 for x < 43699
	x = q | (x-q*100)<<16
	q = x * 103 >> 10 & 0x000f_000f_000f_000f // x/10 for x < 179
	x = q | (x-q*10)<<8
	z := bits.TrailingZeros64(x|1<<56) >> 3
	return (x | 0x30303030_30303030) >> (8 * z & 63), 8 - z
}

// digitCount is the decimal width of v.
func digitCount(v uint64) int {
	// 1233/4096 ≈ log10(2): d is the digit count of v or one less.
	d := bits.Len64(v) * 1233 >> 12
	if v >= moreDigits[d] {
		d++
	}
	return d
}

// putLong is putUint for any v: two digits per step from the low end.
func putLong(b []byte, i int, v uint64) int {
	end := i + digitCount(v)
	j := end
	for v >= 100 {
		p := v % 100 * 2
		v /= 100
		j -= 2
		b[j], b[j+1] = digitPairs[p], digitPairs[p+1]
	}
	if v >= 10 {
		b[j-2], b[j-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		b[j-1] = byte('0' + v)
	}
	return end
}

// digitRun returns how many of x's bytes, in little-endian order, are ASCII
// digits before the first that is not: 8 when all are.  A byte c is a digit
// when c^'0' < 10, i.e. when adding 0x76 leaves its top bit clear and the
// top bit was clear to begin with.  A carry out of a non-digit byte can
// only corrupt the bytes above it, never the first non-digit's own flag.
func digitRun(x uint64) int {
	y := x ^ 0x30303030_30303030
	return bits.TrailingZeros64((y+0x76767676_76767676|y)&0x80808080_80808080) >> 3
}

// parseDigits returns the value of the first k (1 ≤ k ≤ 8) bytes of x,
// ASCII digits in little-endian order.  Shifting the field to the top of
// the word pads it with leading zeros to eight digits, which three
// multiply-shifts then combine 1+1 → 2, 2+2 → 4 and 4+4 → 8 digits at a
// time: each lane takes 10, 100 or 10⁴ times its lower neighbour plus
// itself, and no lane sum overflows its width.
func parseDigits(x uint64, k int) uint64 {
	x = (x & 0x0f0f0f0f_0f0f0f0f) << (uint(64-8*k) & 63) // & 63: a no-op that spares a range check
	x = x * (10<<8 + 1) >> 8 & 0x00ff00ff_00ff00ff
	x = x * (100<<16 + 1) >> 16 & 0x0000ffff_0000ffff
	return x * (10000<<32 + 1) >> 32
}

// ErrSyntax is the cause of a TSV decode error on a malformed record.
var ErrSyntax = errors.New("fastio: invalid unsigned integer")

// ErrRange is the cause of a TSV decode error on a field that overflows
// uint64.
var ErrRange = errors.New("fastio: unsigned integer out of range")

// ---------------------------------------------------------------------------
// Codec interfaces

// EdgeSink consumes a stream of edges a batch at a time.  WriteEdges
// appends edges l[lo:hi) to the stream; the range must be valid (callers go
// through the package-level WriteEdges, which checks).  Implementations
// buffer internally: Flush is a barrier after which every edge written
// before it has reached the underlying writer, and callers must Flush
// before closing it.
type EdgeSink interface {
	WriteEdges(l *edge.List, lo, hi int) error
	Flush() error
}

// EdgeSource produces a stream of edges a batch at a time.  ReadEdges
// appends up to max ≥ 1 edges to l, decoding into l's spare capacity and
// growing l only when it has none, and returns the number appended.  A
// short count with a nil error is legal (a block or stripe boundary, say);
// (0, io.EOF) means end of stream, and the call repeats it thereafter.
type EdgeSource interface {
	ReadEdges(l *edge.List, max int) (int, error)
}

// WriteEdges writes edges l[lo:hi) to s, after checking the range.
func WriteEdges(s EdgeSink, l *edge.List, lo, hi int) error {
	if lo < 0 || hi > l.Len() || lo > hi {
		return fmt.Errorf("fastio: WriteEdges range [%d:%d) out of bounds for %d edges", lo, hi, l.Len())
	}
	return s.WriteEdges(l, lo, hi)
}

// ReadEdges appends up to max edges from s to l, returning the number
// appended, under the EdgeSource contract: callers loop until io.EOF rather
// than until a short read.  A max ≤ 0 reads nothing and returns (0, nil).
func ReadEdges(s EdgeSource, l *edge.List, max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	return s.ReadEdges(l, max)
}

// Codec bundles matching reader and writer constructors for one on-disk
// edge encoding.
type Codec interface {
	// Name identifies the codec in file extensions and reports.
	Name() string
	// NewWriter returns a sink encoding edges onto w.
	NewWriter(w io.Writer) EdgeSink
	// NewReader returns a source decoding edges from r.
	NewReader(r io.Reader) EdgeSource
	// BytesPerEdge estimates the encoded size of one edge with vertex
	// labels below maxVertex, used for file sizing and performance models.
	BytesPerEdge(maxVertex uint64) float64
}

// ---------------------------------------------------------------------------
// TSV codec (optimized)

// TSV is the paper's tab-separated text format with hand-rolled formatting
// and parsing.  This is the codec the optimized (csr) variant uses.
type TSV struct{}

// Name implements Codec.
func (TSV) Name() string { return "tsv" }

// BytesPerEdge implements Codec: two decimal labels, a tab and a newline.
// Most uniform labels below maxVertex share the widest one's digit count,
// which is close enough for sizing estimates.
func (TSV) BytesPerEdge(maxVertex uint64) float64 {
	return 2*float64(digitCount(max(maxVertex, 1)-1)) + 2
}

// NewWriter implements Codec.
func (TSV) NewWriter(w io.Writer) EdgeSink { return newBlockWriter(TSV{}, w) }

// NewReader implements Codec.
func (TSV) NewReader(r io.Reader) EdgeSource { return newBlockReader(TSV{}, r, decodeBlock) }

// maxRecord is the longest record: two maxDigits fields, a tab, a newline.
const maxRecord = 2*maxDigits + 2

// appendEdges makes room for the records once, at a record width their
// largest digit count bounds, and formats each in place (putRecord).
func (TSV) appendEdges(dst []byte, l *edge.List, lo, hi int, _ bool) []byte {
	us, vs := l.U[lo:hi], l.V[lo:hi]
	vs = vs[:len(us)]
	var or uint64 // no label has more digits than or
	for k, u := range us {
		or |= u | vs[k]
	}
	b, i := slices.Grow(dst, len(us)*(2*digitCount(or)+2)+maxRecord), len(dst)
	b = b[:cap(b)]
	for k, u := range us {
		i = putRecord(b, i, u, vs[k])
	}
	return b[:i]
}

// putRecord writes the record "u\tv\n" into b at offset i and returns the
// offset past it.  b must have room for maxRecord bytes from i.
func putRecord(b []byte, i int, u, v uint64) int {
	if u|v < 1e8 { // both below 10⁸: two word stores
		x, n := shortDigits(u)
		y, m := shortDigits(v)
		binary.LittleEndian.PutUint64(b[i:], x)
		i += n
		b[i] = '\t'
		binary.LittleEndian.PutUint64(b[i+1:], y)
		i += 1 + m
	} else {
		i = putUint(b, i, u)
		b[i] = '\t'
		i = putUint(b, i+1, v)
	}
	b[i] = '\n'
	return i + 1
}

// cut ends a block after its last newline, or at the end of the stream,
// where a final record may lack one: every record is one line.
func (TSV) cut(b []byte, _, eof bool) (n, edges int, err error) {
	n = bytes.LastIndexByte(b, '\n') + 1
	edges = bytes.Count(b[:n], []byte{'\n'})
	if eof && n < len(b) {
		n, edges = len(b), edges+1
	}
	return n, edges, nil
}

// decode runs the scanner over b where it lies, as the whole of its input.
func (TSV) decode(b []byte, us, vs []uint64, _ bool, line int) (int, error) {
	t := tsvScanner{buf: b[:len(b)+1+wordSlack], end: len(b), line: line}
	t.buf[len(b)] = 0 // the end-of-data byte
	return t.words(us, vs)
}

// tsvScanner decodes "u\tv\n" records out of a block cut after a record:
// buf[:end] is the block, buf[end] a non-digit and wordSlack bytes follow.
// It tolerates \r\n line endings and a final record without a newline;
// input that ends anywhere else inside a record is truncated, and the
// error (io.ErrUnexpectedEOF) carries the line number like every parse
// error.  Only the stream's last block can end inside a record: cut ends
// every other one after a newline.
type tsvScanner struct {
	buf      []byte
	pos, end int // buf[pos:end] is not yet decoded
	line     int // records before buf[pos]
}

// wordSlack is the room past a block's end-of-data byte that lets words
// load any field that starts at or before it as one 8-byte word.
const wordSlack = 8

// words decodes records into us and vs (of equal length) until they are
// full, returning the number decoded.  A record whose fields are each 1–8
// digits, the first ending in a tab and the second in a newline, decodes a
// word at a time; every other record — longer or empty fields, a \r, any
// other byte, or a record the data ends in — goes to readEdge from its
// first byte, and its error, io.EOF included, ends the batch.  The
// end-of-data byte is a non-digit and wordSlack bytes follow it, so a
// field load never leaves the buffer and a field that reaches the end of
// the data never passes for a whole one.
func (t *tsvScanner) words(us, vs []uint64) (int, error) {
	vs = vs[:len(us)]
	buf, pos, line := t.buf, t.pos, t.line
	for i := range us {
		x := binary.LittleEndian.Uint64(buf[pos:])
		j := pos + digitRun(x)
		if j > pos && buf[j] == '\t' {
			y := binary.LittleEndian.Uint64(buf[j+1:])
			k := j + 1 + digitRun(y)
			if k > j+1 && buf[k] == '\n' {
				us[i], vs[i] = parseDigits(x, j-pos), parseDigits(y, k-j-1)
				pos = k + 1
				continue
			}
		}
		t.pos, t.line = pos, line+i
		u, v, err := t.readEdge()
		if err != nil {
			return i, err
		}
		us[i], vs[i] = u, v
		pos = t.pos
	}
	t.pos, t.line = pos, line+len(us)
	return len(us), nil
}

// readEdge decodes the next record.  It is the byte scanner that defines
// the format; words hands it every record its word path does not take.
func (t *tsvScanner) readEdge() (uint64, uint64, error) {
	t.line++
	u, v, err := t.record()
	if err != nil && err != io.EOF {
		err = fmt.Errorf("fastio: line %d: %w", t.line, err)
	}
	return u, v, err
}

// record decodes one record.  io.EOF means the input ended cleanly before
// the record's first byte; every other error is bare, for readEdge to
// position.
func (t *tsvScanner) record() (u, v uint64, err error) {
	const cutoff = (1<<64-1)/10 + 1
	buf, pos := t.buf, t.pos
	for field := 0; ; field++ {
		var n uint64
		digits := 0
		for ; ; pos++ {
			d := uint64(buf[pos] - '0')
			if d > 9 {
				break
			}
			if n >= cutoff {
				return 0, 0, ErrRange
			}
			n = n*10 + d
			if n < d {
				return 0, 0, ErrRange
			}
			digits++
		}
		if pos == t.end { // the data ends inside the field
			switch {
			case field == 0 && digits == 0:
				return 0, 0, io.EOF
			case field == 1 && digits > 0: // final record, no newline
				t.pos = pos
				return u, n, nil
			}
			return 0, 0, io.ErrUnexpectedEOF
		}
		c := buf[pos]
		pos++
		if digits == 0 {
			return 0, 0, ErrSyntax
		}
		if field == 0 {
			if c != '\t' {
				return 0, 0, ErrSyntax
			}
			u = n
			continue
		}
		if c == '\r' && pos < t.end { // tolerate CRLF: the next byte must be the newline
			c = buf[pos]
			pos++
		}
		if c != '\n' {
			return 0, 0, ErrSyntax
		}
		t.pos = pos
		return u, n, nil
	}
}

// ---------------------------------------------------------------------------
// NaiveTSV codec

// NaiveTSV reads and writes the same text format as TSV but through the
// generic standard-library route: fmt.Appendf for writing and
// bufio.Scanner plus strconv.ParseUint for reading.  It exists to model the
// paper's interpreted-language implementations, whose string handling
// dominates kernels 0–2, and doubles as a differential-testing oracle for
// the optimized codec.
type NaiveTSV struct{}

// Name implements Codec.
func (NaiveTSV) Name() string { return "naivetsv" }

// BytesPerEdge implements Codec.
func (NaiveTSV) BytesPerEdge(maxVertex uint64) float64 { return TSV{}.BytesPerEdge(maxVertex) }

// NewWriter implements Codec.
func (NaiveTSV) NewWriter(w io.Writer) EdgeSink { return newBlockWriter(NaiveTSV{}, w) }

// NewReader implements Codec.
func (NaiveTSV) NewReader(r io.Reader) EdgeSource {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64<<10), 1<<20)
	return &naiveReader{s: s}
}

// appendEdges formats the records one fmt.Appendf call each.
func (NaiveTSV) appendEdges(dst []byte, l *edge.List, lo, hi int, _ bool) []byte {
	for i := lo; i < hi; i++ {
		dst = fmt.Appendf(dst, "%d\t%d\n", l.U[i], l.V[i])
	}
	return dst
}

type naiveReader struct {
	s    *bufio.Scanner
	line int
}

// ReadEdges implements EdgeSource, one Scan and two strconv.ParseUint
// calls per edge.
func (n *naiveReader) ReadEdges(l *edge.List, max int) (int, error) {
	for got := 0; got < max; got++ {
		more := n.s.Scan()
		if err := n.s.Err(); err != nil {
			return got, err // the token beside a read error may be a line it cut short
		}
		if !more {
			if got > 0 {
				return got, nil
			}
			return 0, io.EOF
		}
		n.line++
		text := n.s.Bytes()
		tab := bytes.IndexByte(text, '\t')
		if tab < 0 {
			return got, fmt.Errorf("fastio: line %d: missing tab", n.line)
		}
		u, err := strconv.ParseUint(string(text[:tab]), 10, 64)
		if err != nil {
			return got, fmt.Errorf("fastio: line %d: %w", n.line, err)
		}
		v, err := strconv.ParseUint(string(text[tab+1:]), 10, 64)
		if err != nil {
			return got, fmt.Errorf("fastio: line %d: %w", n.line, err)
		}
		l.Append(u, v)
	}
	return max, nil
}

// ---------------------------------------------------------------------------
// Binary codec

// Binary encodes each edge as two little-endian uint64 words (16 bytes).
// The paper's format is text; this codec exists for the text-vs-binary
// ablation and for the external sorter's intermediate run files, where
// fixed-width records allow exact spill accounting.
type Binary struct{}

// Name implements Codec.
func (Binary) Name() string { return "bin" }

// BytesPerEdge implements Codec.
func (Binary) BytesPerEdge(uint64) float64 { return 16 }

// NewWriter implements Codec.
func (Binary) NewWriter(w io.Writer) EdgeSink { return newBlockWriter(Binary{}, w) }

// NewReader implements Codec.
func (Binary) NewReader(r io.Reader) EdgeSource { return newBlockReader(Binary{}, r, decodeBlock) }

func (Binary) appendEdges(dst []byte, l *edge.List, lo, hi int, _ bool) []byte {
	dst = slices.Grow(dst, 16*(hi-lo))
	for i := lo; i < hi; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, l.U[i])
		dst = binary.LittleEndian.AppendUint64(dst, l.V[i])
	}
	return dst
}

func (Binary) cut(b []byte, _, eof bool) (n, edges int, err error) {
	n = len(b) &^ 15
	if eof && n < len(b) {
		err = fmt.Errorf("fastio: truncated binary edge record: %w", io.ErrUnexpectedEOF)
	}
	return n, n / 16, err
}

func (Binary) decode(b []byte, us, vs []uint64, _ bool, _ int) (int, error) {
	for i := range us {
		us[i], vs[i] = binary.LittleEndian.Uint64(b[16*i:]), binary.LittleEndian.Uint64(b[16*i+8:])
	}
	return len(us), nil
}

// Interface conformance checks.
var (
	_ Codec = TSV{}
	_ Codec = NaiveTSV{}
	_ Codec = Binary{}
)

// ---------------------------------------------------------------------------
// Striped files

// StripeName returns the name of stripe i of nfiles for the given prefix,
// e.g. "k0/part-0003.tsv".  The zero-padded index keeps lexicographic and
// numeric order identical so vfs.List order is stripe order.
func StripeName(prefix string, codec Codec, i int) string {
	return fmt.Sprintf("%s-%04d.%s", prefix, i, codec.Name())
}

// WriteStriped writes the edge list across nfiles files named
// StripeName(prefix, codec, 0..nfiles-1), so stripe i holds the contiguous
// edges [⌊i·m/nfiles⌋, ⌊(i+1)·m/nfiles⌋): the bytes a StripedSink that
// expects the l.Len() edges writes.  It is WriteStripedWide GOMAXPROCS
// wide.  nfiles must be at least 1.
func WriteStriped(fs vfs.FS, prefix string, codec Codec, nfiles int, l *edge.List) error {
	return WriteStripedWide(fs, prefix, codec, nfiles, l, 0)
}

// StripeNames returns the existing stripe file names for prefix, in stripe
// order.  It probes consecutive indices until a stripe is missing.
func StripeNames(fs vfs.FS, prefix string, codec Codec) ([]string, error) {
	var names []string
	for i := 0; ; i++ {
		name := StripeName(prefix, codec, i)
		if _, err := fs.Size(name); err != nil {
			break
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("fastio: no stripes found for prefix %q (codec %s)", prefix, codec.Name())
	}
	return names, nil
}

// StripedBytes sums the on-disk sizes of the stripe files for prefix —
// the encoded footprint a format ablation reports next to edges/second.
func StripedBytes(fs vfs.FS, prefix string, codec Codec) (int64, error) {
	names, err := StripeNames(fs, prefix, codec)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		n, err := fs.Size(name)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// ReadStriped reads all stripes for prefix into a single new edge list, in
// stripe order, GOMAXPROCS wide.
func ReadStriped(fs vfs.FS, prefix string, codec Codec) (*edge.List, error) {
	return ReadStripedInto(fs, prefix, codec, nil, 0)
}

// StripedSource is an EdgeSource that streams edges from a set of stripe
// files in order, opening each file lazily: the stripe reader of the
// kernels that stream (the out-of-core sort and its merge inputs) without
// materializing the whole edge list.  It reads and cuts the files in
// pieces of streamBlock bytes, which one goroutine decodes ahead of the
// caller in streamSlots slots (wide.go), and ReadEdges copies edges
// straight out of the oldest decoded piece.  A failure is
// `fastio: <file>: <cause>`, after the edges before it, and every read
// after it returns it again.  Close stops the goroutine: a caller that
// stops reading before io.EOF or an error must call it.
type StripedSource struct {
	in  pieceReader
	cur *pieceIn // the piece reads are served from, cur.us[pos:]
	pos int
	end error // what stopped the cut after the pieces put
}

// errClosed is what a stream returns once it is closed.
var errClosed = errors.New("fastio: use of a closed stream")

// NewStripedSource returns a StripedSource over the stripes of prefix.
func NewStripedSource(fs vfs.FS, prefix string, codec Codec) (*StripedSource, error) {
	names, err := StripeNames(fs, prefix, codec)
	if err != nil {
		return nil, err
	}
	return NewFileSource(fs, codec, names...), nil
}

// NewFileSource returns a StripedSource over the named files, read in the
// given order: a stripe set, or one spilled run of an external sort.
func NewFileSource(fs vfs.FS, codec Codec, names ...string) *StripedSource {
	return &StripedSource{in: newPieceReader(fs, codec, names, streamBlock)}
}

// ReadEdges implements EdgeSource.  It returns what is left of one piece
// at most.
func (s *StripedSource) ReadEdges(l *edge.List, max int) (int, error) {
	for s.cur == nil || s.pos == len(s.cur.us) {
		if err := s.advance(); err != nil {
			return 0, err
		}
	}
	n := min(max, len(s.cur.us)-s.pos)
	l.U = append(l.U, s.cur.us[s.pos:s.pos+n]...)
	l.V = append(l.V, s.cur.vs[s.pos:s.pos+n]...)
	s.pos += n
	return n, nil
}

// advance moves to the next decoded piece, after putting pieces into
// every slot but the one it leaves, and starts the goroutine on the first
// call.  With no piece left it returns what ended the stream: the error
// of the piece it leaves, else end.
func (s *StripedSource) advance() error {
	in := &s.in
	switch {
	case s.cur != nil && s.cur.err != nil:
		return s.cur.err
	case in.ring == nil && s.end != nil:
		return s.end // closed
	case in.ring == nil:
		in.start(workteam.NewRing(1, streamSlots, in.decode))
	}
	for s.end == nil && in.ring.InFlight() < len(in.slots) {
		s.end = in.put()
	}
	if in.ring.InFlight() == 0 {
		return s.end
	}
	s.cur, s.pos = &in.slots[in.ring.Wait()%len(in.slots)], 0
	return nil
}

// Close stops the goroutine, once its pieces are done, and closes the
// open file; later reads return an error.
func (s *StripedSource) Close() error {
	if s.in.ring != nil {
		s.in.stop()
		s.in.ring = nil
	}
	s.cur, s.end = nil, errClosed
	return nil
}

// stripeReader decodes a list of files one after the other on the calling
// goroutine: the stream of a codec that cannot cut (NaiveTSV), which a
// pieceReader reads in pieces of edges.
type stripeReader struct {
	fs    vfs.FS
	codec Codec
	names []string
	next  int // index of the next file to open
	cur   io.ReadCloser
	src   EdgeSource
}

// readEdges follows the ReadEdges contract, rolling to the next file at
// each end of file.
func (s *stripeReader) readEdges(l *edge.List, max int) (int, error) {
	for {
		if s.src == nil {
			if s.next >= len(s.names) {
				return 0, io.EOF
			}
			r, err := s.fs.Open(s.names[s.next])
			if err != nil {
				return 0, fmt.Errorf("fastio: %s: %w", s.names[s.next], err)
			}
			s.cur = r
			s.src = s.codec.NewReader(r)
			s.next++
		}
		n, err := ReadEdges(s.src, l, max)
		if err == io.EOF {
			s.close()
			continue
		}
		if err != nil {
			err = fmt.Errorf("fastio: %s: %w", s.names[s.next-1], err)
		}
		return n, err
	}
}

func (s *stripeReader) close() error {
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur, s.src = nil, nil
	return err
}

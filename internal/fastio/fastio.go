// Package fastio implements the edge-file formats of the PageRank pipeline
// benchmark and fast primitives for reading and writing them.
//
// The paper specifies that kernels 0 and 1 exchange edges through files of
// tab-separated numeric strings, one "u\tv\n" record per edge, striped over
// an implementer-chosen number of files on non-volatile storage.  This
// package provides:
//
//   - allocation-free decimal integer formatting and parsing;
//   - four interchangeable codecs: TSV (the paper's format, hand-optimized),
//     NaiveTSV (the same format via strconv/bufio, standing in for the
//     paper's interpreted-language implementations), Binary (16-byte
//     little-endian records, used by the text-vs-binary ablation), and
//     Packed (block-structured varint + delta encoding that exploits the
//     sortedness kernel 1 produces);
//   - batched WriteEdges/ReadEdges paths that move edges in bulk through
//     codecs that support it (BulkEdgeSink/BulkEdgeSource) and fall back
//     to the per-edge interface otherwise;
//   - codec resolution by name (CodecByName) and by on-disk content
//     (Detect, DetectStriped);
//   - striped writing and reading of edge lists across N files of a
//     vfs.FS, plus a streaming reader for out-of-core kernels.
package fastio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// DefaultBufSize is the buffer size used by codec readers and writers.
// 256 KiB amortizes syscall and copy overhead at the record sizes involved
// (≈ 15 bytes per edge at benchmark scales).
const DefaultBufSize = 256 << 10

// AppendUint appends the decimal representation of v to dst and returns the
// extended slice.  It is equivalent to strconv.AppendUint(dst, v, 10),
// through the routine the TSV writer formats its records with.
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

// putUint writes the decimal form of v into b at offset i, two digits per
// step from the low end, and returns the offset past it.  b must have
// room for the digits (at most maxDigits).
func putUint(b []byte, i int, v uint64) int {
	// 1233/4096 ≈ log10(2): d is the digit count of v or one less.
	d := bits.Len64(v) * 1233 >> 12
	if v >= moreDigits[d] {
		d++
	}
	end := i + d
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

// ErrSyntax is returned by ParseUint for malformed input.
var ErrSyntax = errors.New("fastio: invalid unsigned integer")

// ErrRange is returned by ParseUint when the value overflows uint64.
var ErrRange = errors.New("fastio: unsigned integer out of range")

// ParseUint parses b as an unsigned decimal integer.  Unlike
// strconv.ParseUint it operates on []byte without allocation.
func ParseUint(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, ErrSyntax
	}
	const cutoff = (1<<64-1)/10 + 1
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, ErrSyntax
		}
		if n >= cutoff {
			return 0, ErrRange
		}
		n = n * 10
		d := uint64(c - '0')
		if n+d < n {
			return 0, ErrRange
		}
		n += d
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Codec interfaces

// EdgeSink consumes a stream of edges.  Implementations buffer internally;
// callers must Flush before closing the underlying writer.
type EdgeSink interface {
	WriteEdge(u, v uint64) error
	Flush() error
}

// EdgeSource produces a stream of edges, returning io.EOF after the last.
type EdgeSource interface {
	ReadEdge() (u, v uint64, err error)
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

// BytesPerEdge implements Codec: two decimal numbers of roughly equal
// average width, a tab and a newline.
func (TSV) BytesPerEdge(maxVertex uint64) float64 {
	return 2*avgDecimalWidth(maxVertex) + 2
}

// avgDecimalWidth approximates the mean decimal width of uniform labels in
// [0, maxVertex).
func avgDecimalWidth(maxVertex uint64) float64 {
	if maxVertex == 0 {
		return 1
	}
	d := len(strconv.FormatUint(maxVertex-1, 10))
	// Most uniform values share the top width; this is close enough for
	// sizing estimates.
	return float64(d)
}

// NewWriter implements Codec.
func (TSV) NewWriter(w io.Writer) EdgeSink { return NewTSVWriter(w, DefaultBufSize) }

// NewReader implements Codec.
func (TSV) NewReader(r io.Reader) EdgeSource { return NewTSVReader(r, DefaultBufSize) }

// TSVWriter encodes edges as "u\tv\n" records with an internal buffer.
type TSVWriter struct {
	w   io.Writer
	buf []byte
	max int
}

// NewTSVWriter returns a TSVWriter with the given buffer size.
func NewTSVWriter(w io.Writer, bufSize int) *TSVWriter {
	if bufSize < 64 {
		bufSize = 64
	}
	return &TSVWriter{w: w, buf: make([]byte, 0, bufSize), max: bufSize}
}

// maxRecord is the longest record: two maxDigits fields, a tab, a newline.
const maxRecord = 2*maxDigits + 2

// WriteEdge implements EdgeSink.  The buffer always has room for one more
// record, so the record is formatted in place.
func (t *TSVWriter) WriteEdge(u, v uint64) error {
	b := t.buf[:t.max]
	n := putUint(b, len(t.buf), u)
	b[n] = '\t'
	n = putUint(b, n+1, v)
	b[n] = '\n'
	t.buf = b[:n+1]
	if len(t.buf) >= t.max-maxRecord {
		return t.Flush()
	}
	return nil
}

// Flush implements EdgeSink.
func (t *TSVWriter) Flush() error {
	if len(t.buf) == 0 {
		return nil
	}
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}

// TSVReader decodes "u\tv\n" records, scanning digits straight out of its
// own buffer, which it refills only once every byte in it is consumed — a
// record may straddle a refill at any byte.  It tolerates \r\n line
// endings and a final record without a newline; input that ends anywhere
// else inside a record is truncated, and the error (io.ErrUnexpectedEOF)
// carries the line number like every parse error.
type TSVReader struct {
	r        io.Reader
	buf      []byte // one byte longer than a refill: buf[end] is a non-digit
	pos, end int    // buf[pos:end] is read but not yet decoded
	off      int64  // input bytes that came before buf[0]
	line     int
	err      error // what r ended with, io.EOF included; reported once buf drains
}

// NewTSVReader returns a TSVReader with the given buffer size.
func NewTSVReader(r io.Reader, bufSize int) *TSVReader {
	if bufSize < 16 {
		bufSize = 16
	}
	return &TSVReader{r: r, buf: make([]byte, bufSize+1)}
}

// InputOffset returns the number of input bytes the edges decoded so far
// occupied.
func (t *TSVReader) InputOffset() int64 { return t.off + int64(t.pos) }

// ReadEdge implements EdgeSource.
func (t *TSVReader) ReadEdge() (uint64, uint64, error) {
	t.line++
	u, v, err := t.record()
	if err != nil && err != io.EOF {
		err = fmt.Errorf("fastio: line %d: %w", t.line, err)
	}
	return u, v, err
}

// refill replaces the fully decoded buffer with the next bytes of input.
// It returns false when there are none, leaving the cause in t.err.
func (t *TSVReader) refill() bool {
	t.off += int64(t.end)
	t.pos, t.end = 0, 0
	for tries := 0; t.end == 0 && t.err == nil; tries++ {
		if tries == 100 {
			t.err = io.ErrNoProgress
			break
		}
		t.end, t.err = t.r.Read(t.buf[:len(t.buf)-1])
	}
	t.buf[t.end] = 0 // stops the digit loop at the end of the data
	return t.end > 0
}

// record decodes one record.  io.EOF means the input ended cleanly before
// the record's first byte; every other error is bare, for ReadEdge to
// position.
func (t *TSVReader) record() (u, v uint64, err error) {
	const cutoff = (1<<64-1)/10 + 1
	buf, pos := t.buf, t.pos
	for field := 0; ; field++ {
		var n uint64
		digits := 0
		for {
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
			if pos != t.end {
				break // a terminator
			}
			// The data ran out mid-field: go on in the next buffer.
			t.pos = pos
			if !t.refill() {
				switch {
				case t.err != io.EOF:
					return 0, 0, t.err
				case field == 0 && digits == 0:
					return 0, 0, io.EOF
				case field == 1 && digits > 0: // final record, no newline
					return u, n, nil
				}
				return 0, 0, io.ErrUnexpectedEOF
			}
			pos = 0
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
		if c == '\r' { // tolerate CRLF: the next byte must be the newline
			if pos == t.end {
				t.pos = pos
				if !t.refill() {
					return 0, 0, ErrSyntax
				}
				pos = 0
			}
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
// generic standard-library route: fmt.Fprintf for writing and
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
func (NaiveTSV) NewWriter(w io.Writer) EdgeSink {
	return &naiveWriter{w: bufio.NewWriterSize(w, DefaultBufSize)}
}

// NewReader implements Codec.
func (NaiveTSV) NewReader(r io.Reader) EdgeSource {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64<<10), 1<<20)
	return &naiveReader{s: s}
}

type naiveWriter struct {
	w *bufio.Writer
}

func (n *naiveWriter) WriteEdge(u, v uint64) error {
	_, err := fmt.Fprintf(n.w, "%d\t%d\n", u, v)
	return err
}

func (n *naiveWriter) Flush() error { return n.w.Flush() }

type naiveReader struct {
	s    *bufio.Scanner
	line int
}

func (n *naiveReader) ReadEdge() (uint64, uint64, error) {
	if !n.s.Scan() {
		if err := n.s.Err(); err != nil {
			return 0, 0, err
		}
		return 0, 0, io.EOF
	}
	n.line++
	text := n.s.Text()
	tab := -1
	for i := 0; i < len(text); i++ {
		if text[i] == '\t' {
			tab = i
			break
		}
	}
	if tab < 0 {
		return 0, 0, fmt.Errorf("fastio: line %d: missing tab", n.line)
	}
	u, err := strconv.ParseUint(text[:tab], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("fastio: line %d: %w", n.line, err)
	}
	v, err := strconv.ParseUint(text[tab+1:], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("fastio: line %d: %w", n.line, err)
	}
	return u, v, nil
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
func (Binary) NewWriter(w io.Writer) EdgeSink {
	return &binWriter{w: w, buf: make([]byte, 0, DefaultBufSize)}
}

// NewReader implements Codec.
func (Binary) NewReader(r io.Reader) EdgeSource {
	return &binReader{r: bufio.NewReaderSize(r, DefaultBufSize)}
}

type binWriter struct {
	w   io.Writer
	buf []byte
}

func (b *binWriter) WriteEdge(u, v uint64) error {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, u)
	b.buf = binary.LittleEndian.AppendUint64(b.buf, v)
	if len(b.buf) >= cap(b.buf)-16 {
		return b.Flush()
	}
	return nil
}

func (b *binWriter) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.w.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

type binReader struct {
	r   *bufio.Reader
	rec [16]byte
	blk []byte // bulk scratch, allocated on first ReadEdges
}

func (b *binReader) ReadEdge() (uint64, uint64, error) {
	if _, err := io.ReadFull(b.r, b.rec[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, 0, fmt.Errorf("fastio: truncated binary edge record: %w", err)
		}
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(b.rec[0:8]), binary.LittleEndian.Uint64(b.rec[8:16]), nil
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
// StripeName(prefix, codec, 0..nfiles-1), splitting edges into contiguous,
// nearly equal chunks.  nfiles must be at least 1.
func WriteStriped(fs vfs.FS, prefix string, codec Codec, nfiles int, l *edge.List) error {
	if nfiles < 1 {
		return fmt.Errorf("fastio: nfiles = %d, want >= 1", nfiles)
	}
	m := l.Len()
	for i := 0; i < nfiles; i++ {
		lo := i * m / nfiles
		hi := (i + 1) * m / nfiles
		if err := writeOneStripe(fs, StripeName(prefix, codec, i), codec, l, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

func writeOneStripe(fs vfs.FS, name string, codec Codec, l *edge.List, lo, hi int) error {
	w, err := fs.Create(name)
	if err != nil {
		return err
	}
	sink := codec.NewWriter(w)
	if err := WriteEdges(sink, l, lo, hi); err != nil {
		w.Close()
		return err
	}
	if err := sink.Flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
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
// stripe order.
func ReadStriped(fs vfs.FS, prefix string, codec Codec) (*edge.List, error) {
	return ReadStripedInto(fs, prefix, codec, nil)
}

// ReadStripedInto is ReadStriped decoding into dst's storage: dst is
// truncated and refilled, and is regrown only if the stripes hold more
// edges than it has room for, so a list of the right size is filled in
// place.  A nil dst is a new list.  dst's previous contents are lost even
// when the read fails.
func ReadStripedInto(fs vfs.FS, prefix string, codec Codec, dst *edge.List) (*edge.List, error) {
	names, err := StripeNames(fs, prefix, codec)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = edge.NewList(0)
	}
	dst.Reset()
	for _, name := range names {
		if err := readOneStripe(fs, name, codec, dst); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func readOneStripe(fs vfs.FS, name string, codec Codec, l *edge.List) error {
	size, err := fs.Size(name)
	if err != nil {
		return err
	}
	r, err := fs.Open(name)
	if err != nil {
		return err
	}
	defer r.Close()
	src := codec.NewReader(r)
	start := l.Len()
	for {
		// A batch is at most the room l has left, and l is regrown only
		// once that is none: a list that already fits the stripe is filled
		// in place, never reallocated for the sake of slack.
		if l.Len() == min(cap(l.U), cap(l.V)) {
			reserveStripe(l, l.Len()-start, src, size)
		}
		batch := min(cap(l.U), cap(l.V)) - l.Len()
		if batch == 0 || batch > readChunkEdges {
			batch = readChunkEdges
		}
		if _, err := ReadEdges(src, l, batch); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("fastio: %s: %w", name, err)
		}
	}
}

// reserveStripe grows l once to hold the rest of a stripe of size bytes, of
// which src has decoded the first n edges: where src knows the input offset
// of those edges, the stripe is predicted to keep their bytes per edge (plus
// 2 %), so the list is not regrown and recopied chunk after chunk.  A
// prediction that falls short only means another call later, made on more
// evidence.
func reserveStripe(l *edge.List, n int, src EdgeSource, size int64) {
	o, ok := src.(interface{ InputOffset() int64 })
	if !ok || n == 0 {
		return
	}
	rest := float64(size-o.InputOffset()) * float64(n) / float64(o.InputOffset())
	if rest > 0 {
		l.Grow(int(rest*1.02) + 1)
	}
}

// StripedSource is an EdgeSource that streams edges from a set of stripe
// files in order, opening each file lazily.  It is the input path of the
// out-of-core kernels, which must not materialize the whole edge list.
type StripedSource struct {
	fs    vfs.FS
	codec Codec
	names []string
	next  int
	cur   io.ReadCloser
	src   EdgeSource
}

// NewStripedSource returns a StripedSource over the stripes of prefix.
func NewStripedSource(fs vfs.FS, prefix string, codec Codec) (*StripedSource, error) {
	names, err := StripeNames(fs, prefix, codec)
	if err != nil {
		return nil, err
	}
	return &StripedSource{fs: fs, codec: codec, names: names}, nil
}

// ReadEdge implements EdgeSource.
func (s *StripedSource) ReadEdge() (uint64, uint64, error) {
	for {
		if s.src == nil {
			if s.next >= len(s.names) {
				return 0, 0, io.EOF
			}
			r, err := s.fs.Open(s.names[s.next])
			if err != nil {
				return 0, 0, err
			}
			s.cur = r
			s.src = s.codec.NewReader(r)
			s.next++
		}
		u, v, err := s.src.ReadEdge()
		if err == io.EOF {
			s.cur.Close()
			s.cur, s.src = nil, nil
			continue
		}
		return u, v, err
	}
}

// Close releases the currently open stripe, if any.
func (s *StripedSource) Close() error {
	if s.cur != nil {
		err := s.cur.Close()
		s.cur, s.src = nil, nil
		return err
	}
	return nil
}

// CountEdges streams src to completion and returns the number of edges.
func CountEdges(src EdgeSource) (int, error) {
	n := 0
	for {
		_, _, err := src.ReadEdge()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// ListSource adapts an in-memory edge.List to the EdgeSource interface.
type ListSource struct {
	l *edge.List
	i int
}

// NewListSource returns an EdgeSource reading from l.
func NewListSource(l *edge.List) *ListSource { return &ListSource{l: l} }

// ReadEdge implements EdgeSource.
func (s *ListSource) ReadEdge() (uint64, uint64, error) {
	if s.i >= s.l.Len() {
		return 0, 0, io.EOF
	}
	u, v := s.l.At(s.i)
	s.i++
	return u, v, nil
}

// ListSink adapts an edge.List to the EdgeSink interface.
type ListSink struct {
	L *edge.List
}

// NewListSink returns an EdgeSink appending to l.
func NewListSink(l *edge.List) *ListSink { return &ListSink{L: l} }

// WriteEdge implements EdgeSink.
func (s *ListSink) WriteEdge(u, v uint64) error {
	s.L.Append(u, v)
	return nil
}

// Flush implements EdgeSink.
func (s *ListSink) Flush() error { return nil }

package fastio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/edge"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

func TestAppendUintMatchesStrconv(t *testing.T) {
	cases := []uint64{0, 1, 9, 10, 99, 100, 12345, math.MaxUint64, math.MaxUint64 - 1}
	for _, v := range cases {
		got := string(AppendUint(nil, v))
		want := strconv.FormatUint(v, 10)
		if got != want {
			t.Errorf("AppendUint(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestAppendUintProperty(t *testing.T) {
	err := quick.Check(func(v uint64) bool {
		return string(AppendUint(nil, v)) == strconv.FormatUint(v, 10)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestAppendUintAppends(t *testing.T) {
	got := string(AppendUint([]byte("x="), 42))
	if got != "x=42" {
		t.Errorf("AppendUint with prefix = %q", got)
	}
}

func TestParseUintRoundTrip(t *testing.T) {
	err := quick.Check(func(v uint64) bool {
		n, err := ParseUint(AppendUint(nil, v))
		return err == nil && n == v
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestParseUintErrors(t *testing.T) {
	for _, bad := range []string{"", "x", "1x", "-1", " 1", "18446744073709551616", "99999999999999999999"} {
		if _, err := ParseUint([]byte(bad)); err == nil {
			t.Errorf("ParseUint(%q) succeeded, want error", bad)
		}
	}
	if n, err := ParseUint([]byte("18446744073709551615")); err != nil || n != math.MaxUint64 {
		t.Errorf("ParseUint(max) = %d, %v", n, err)
	}
}

// codecs under test: every registered codec, kept in sync by the
// detection registry so a new codec cannot dodge the property tests.
var allCodecs = Codecs()

func randomList(seed uint64, n int) *edge.List {
	g := xrand.New(seed)
	l := edge.NewList(n)
	for i := 0; i < n; i++ {
		l.Append(g.Uint64n(1<<20), g.Uint64n(1<<20))
	}
	return l
}

func TestCodecRoundTrip(t *testing.T) {
	l := randomList(1, 1000)
	// Include boundary values.
	l.Append(0, 0)
	l.Append(math.MaxUint64, math.MaxUint64)
	for _, c := range allCodecs {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			w := c.NewWriter(&buf)
			for i := 0; i < l.Len(); i++ {
				if err := w.WriteEdge(l.U[i], l.V[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			r := c.NewReader(&buf)
			got := edge.NewList(l.Len())
			for {
				u, v, err := r.ReadEdge()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got.Append(u, v)
			}
			if !got.Equal(l) {
				t.Errorf("round trip lost or reordered edges: %d vs %d", got.Len(), l.Len())
			}
		})
	}
}

func TestTSVWireFormat(t *testing.T) {
	var buf bytes.Buffer
	w := TSV{}.NewWriter(&buf)
	w.WriteEdge(3, 14)
	w.WriteEdge(15, 92)
	w.Flush()
	want := "3\t14\n15\t92\n"
	if buf.String() != want {
		t.Errorf("TSV encoding = %q, want %q", buf.String(), want)
	}
}

func TestNaiveAndFastTSVIdenticalOutput(t *testing.T) {
	l := randomList(7, 500)
	var fast, naive bytes.Buffer
	fw, nw := TSV{}.NewWriter(&fast), NaiveTSV{}.NewWriter(&naive)
	for i := 0; i < l.Len(); i++ {
		fw.WriteEdge(l.U[i], l.V[i])
		nw.WriteEdge(l.U[i], l.V[i])
	}
	fw.Flush()
	nw.Flush()
	if fast.String() != naive.String() {
		t.Error("optimized and naive TSV writers disagree on the wire format")
	}
}

func TestTSVReaderCrossParsesNaiveOutput(t *testing.T) {
	// Differential test: each TSV reader must parse the other writer's bytes.
	l := randomList(8, 300)
	var buf bytes.Buffer
	w := NaiveTSV{}.NewWriter(&buf)
	for i := 0; i < l.Len(); i++ {
		w.WriteEdge(l.U[i], l.V[i])
	}
	w.Flush()
	r := TSV{}.NewReader(&buf)
	for i := 0; i < l.Len(); i++ {
		u, v, err := r.ReadEdge()
		if err != nil {
			t.Fatal(err)
		}
		if u != l.U[i] || v != l.V[i] {
			t.Fatalf("edge %d = (%d,%d), want (%d,%d)", i, u, v, l.U[i], l.V[i])
		}
	}
}

func TestTSVReaderTolerance(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  [][2]uint64
	}{
		{"no trailing newline", "1\t2\n3\t4", [][2]uint64{{1, 2}, {3, 4}}},
		{"crlf", "1\t2\r\n3\t4\r\n", [][2]uint64{{1, 2}, {3, 4}}},
		{"crlf, no trailing newline", "1\t2\r\n3\t4", [][2]uint64{{1, 2}, {3, 4}}},
		{"only record, no newline", "3\t4", [][2]uint64{{3, 4}}},
		{"leading zeros", "0007\t000000000000000000000000000000000000000000000000000000000000000000000000008\n", [][2]uint64{{7, 8}}},
		{"empty", "", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := TSV{}.NewReader(strings.NewReader(c.input))
			var got [][2]uint64
			for {
				u, v, err := r.ReadEdge()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, [2]uint64{u, v})
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("got %v, want %v", got, c.want)
				}
			}
		})
	}
}

// tsvErrorCases are malformed inputs with the error ReadEdge must end in
// after decoding the records before it: the parse errors with their line,
// and the truncations — a stripe cut inside a record is an error, not a
// clean end of stream (it used to drop "123" silently and to decode
// "123\t" as the edge (123, 0)).
var tsvErrorCases = []struct {
	input string
	edges int
	line  int
	cause error
}{
	{"a\t2\n", 0, 1, ErrSyntax},
	{"1 2\n", 0, 1, ErrSyntax},
	{"1\t\n", 0, 1, ErrSyntax},
	{"\t2\n", 0, 1, ErrSyntax},
	{"\n", 0, 1, ErrSyntax},
	{"1\t2x\n", 0, 1, ErrSyntax},
	{"1\t2\r", 0, 1, ErrSyntax},
	{"1\t2\rx\n", 0, 1, ErrSyntax},
	{"1\r\n", 0, 1, ErrSyntax},
	{"18446744073709551616\t0\n", 0, 1, ErrRange},
	{"0\t99999999999999999999\n", 0, 1, ErrRange},
	{"1\t2\n3\t4\n5\tx\n", 2, 3, ErrSyntax},
	{"1\t2\r\n\r\n", 1, 2, ErrSyntax},
	{"123", 0, 1, io.ErrUnexpectedEOF},
	{"123\t", 0, 1, io.ErrUnexpectedEOF},
	{"1\t2\n123", 1, 2, io.ErrUnexpectedEOF},
	{"1\t2\n3\t4\n123\t", 2, 3, io.ErrUnexpectedEOF},
}

func TestTSVReaderErrors(t *testing.T) {
	for _, c := range tsvErrorCases {
		want := fmt.Sprintf("fastio: line %d: %v", c.line, c.cause)
		check := func(path string, edges int, err error) {
			t.Helper()
			if edges != c.edges || !errors.Is(err, c.cause) || !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%s(%q): %d edges then %v, want %d then %q", path, c.input, edges, err, c.edges, want)
			}
		}

		r := TSV{}.NewReader(strings.NewReader(c.input))
		n, err := CountEdges(r)
		check("ReadEdge", n, err)

		l := edge.NewList(0)
		_, err = ReadEdges(TSV{}.NewReader(strings.NewReader(c.input)), l, 100)
		check("ReadEdges", l.Len(), err)

		fs := vfs.NewMem()
		w, _ := fs.Create(StripeName("t", TSV{}, 0))
		io.WriteString(w, c.input)
		w.Close()
		if _, err = ReadStriped(fs, "t", TSV{}); err == nil || !strings.Contains(err.Error(), "t-0000.tsv") {
			t.Errorf("ReadStriped(%q): error %v does not name the stripe", c.input, err)
		}
		check("ReadStriped", c.edges, err) // edges are not returned with the error

		src, err := NewStripedSource(fs, "t", TSV{})
		if err != nil {
			t.Fatal(err)
		}
		n, err = CountEdges(src)
		check("StripedSource", n, err)
		src.Close()
	}
}

func TestBinaryReaderTruncated(t *testing.T) {
	r := Binary{}.NewReader(bytes.NewReader(make([]byte, 20))) // 1.25 records
	if _, _, err := r.ReadEdge(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, _, err := r.ReadEdge(); err == nil || err == io.EOF {
		t.Errorf("truncated record err = %v, want explicit error", err)
	}
}

func TestBytesPerEdge(t *testing.T) {
	if got := (Binary{}).BytesPerEdge(1 << 20); got != 16 {
		t.Errorf("Binary BytesPerEdge = %v", got)
	}
	got := (TSV{}).BytesPerEdge(1 << 20)
	if got < 8 || got > 18 {
		t.Errorf("TSV BytesPerEdge(2^20) = %v, want plausible text size", got)
	}
}

func TestWriteReadStriped(t *testing.T) {
	l := randomList(3, 1017) // deliberately not divisible by stripe counts
	for _, nfiles := range []int{1, 2, 3, 8, 16} {
		for _, c := range allCodecs {
			fs := vfs.NewMem()
			if err := WriteStriped(fs, "k0/edges", c, nfiles, l); err != nil {
				t.Fatalf("WriteStriped(nfiles=%d,%s): %v", nfiles, c.Name(), err)
			}
			names, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != nfiles {
				t.Fatalf("wrote %d files, want %d", len(names), nfiles)
			}
			got, err := ReadStriped(fs, "k0/edges", c)
			if err != nil {
				t.Fatalf("ReadStriped: %v", err)
			}
			if !got.Equal(l) {
				t.Fatalf("striped round trip (nfiles=%d, %s) corrupted edges", nfiles, c.Name())
			}
		}
	}
}

// TestReadStripedIntoFillsInPlace: the striped reader decodes into the
// list it is handed.  One whose capacity is exactly the stripes' edge
// count — kernel 0's list handed to kernel 1 — comes back with the same
// backing arrays (no regrowth for slack, across several read batches and
// stripes); stale contents, longer or shorter, never show through; a list
// that is too small is regrown; nil makes a new one.
func TestReadStripedIntoFillsInPlace(t *testing.T) {
	l := randomList(9, 2*readChunkEdges+4321)
	for _, nfiles := range []int{1, 3} {
		for _, c := range allCodecs {
			fs := vfs.NewMem()
			if err := WriteStriped(fs, "k0", c, nfiles, l); err != nil {
				t.Fatal(err)
			}
			exact := randomList(10, l.Len()) // same size, other edges
			u0, v0 := &exact.U[0], &exact.V[0]
			got, err := ReadStripedInto(fs, "k0", c, exact)
			if err != nil {
				t.Fatalf("%s/%d: %v", c.Name(), nfiles, err)
			}
			if got != exact || &got.U[0] != u0 || &got.V[0] != v0 {
				t.Errorf("%s/%d: a list of exactly the right capacity was reallocated", c.Name(), nfiles)
			}
			if !got.Equal(l) {
				t.Errorf("%s/%d: decode into an exact list corrupted edges", c.Name(), nfiles)
			}
			for name, dst := range map[string]*edge.List{
				"nil": nil, "empty": edge.NewList(0), "short": randomList(11, 100), "long": randomList(12, l.Len()+5000),
			} {
				got, err := ReadStripedInto(fs, "k0", c, dst)
				if err != nil || !got.Equal(l) {
					t.Errorf("%s/%d into a %s list: err %v, equal %v", c.Name(), nfiles, name, err, err == nil && got.Equal(l))
				}
				if dst != nil && got != dst {
					t.Errorf("%s/%d into a %s list: returned another list", c.Name(), nfiles, name)
				}
			}
		}
	}
}

func TestWriteStripedRejectsZeroFiles(t *testing.T) {
	if err := WriteStriped(vfs.NewMem(), "x", TSV{}, 0, edge.NewList(0)); err == nil {
		t.Error("nfiles=0 accepted")
	}
}

func TestReadStripedMissing(t *testing.T) {
	if _, err := ReadStriped(vfs.NewMem(), "absent", TSV{}); err == nil {
		t.Error("reading absent prefix should fail")
	}
}

func TestStripedSourceStreams(t *testing.T) {
	l := randomList(4, 505)
	fs := vfs.NewMem()
	if err := WriteStriped(fs, "e", TSV{}, 7, l); err != nil {
		t.Fatal(err)
	}
	src, err := NewStripedSource(fs, "e", TSV{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := edge.NewList(l.Len())
	for {
		u, v, err := src.ReadEdge()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got.Append(u, v)
	}
	if !got.Equal(l) {
		t.Error("StripedSource does not preserve order across stripes")
	}
}

func TestCountEdges(t *testing.T) {
	l := randomList(5, 321)
	n, err := CountEdges(NewListSource(l))
	if err != nil || n != 321 {
		t.Errorf("CountEdges = %d, %v", n, err)
	}
}

func TestListSinkSource(t *testing.T) {
	l := edge.NewList(0)
	sink := NewListSink(l)
	sink.WriteEdge(1, 2)
	sink.WriteEdge(3, 4)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	src := NewListSource(l)
	u, v, err := src.ReadEdge()
	if err != nil || u != 1 || v != 2 {
		t.Errorf("first edge = (%d,%d), %v", u, v, err)
	}
	src.ReadEdge()
	if _, _, err := src.ReadEdge(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestStripeNameOrdering(t *testing.T) {
	// Zero padding must make lexicographic order equal stripe order.
	a := StripeName("p", TSV{}, 2)
	b := StripeName("p", TSV{}, 10)
	if !(a < b) {
		t.Errorf("stripe names out of order: %q >= %q", a, b)
	}
}

func BenchmarkTSVWrite(b *testing.B) {
	l := randomList(1, 10000)
	b.SetBytes(int64(l.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := TSV{}.NewWriter(io.Discard)
		for j := 0; j < l.Len(); j++ {
			w.WriteEdge(l.U[j], l.V[j])
		}
		w.Flush()
	}
}

func BenchmarkTSVRead(b *testing.B) {
	l := randomList(1, 10000)
	var buf bytes.Buffer
	w := TSV{}.NewWriter(&buf)
	for j := 0; j < l.Len(); j++ {
		w.WriteEdge(l.U[j], l.V[j])
	}
	w.Flush()
	data := buf.Bytes()
	b.SetBytes(int64(l.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := TSV{}.NewReader(bytes.NewReader(data))
		for {
			if _, _, err := r.ReadEdge(); err == io.EOF {
				break
			}
		}
	}
}

func BenchmarkNaiveTSVRead(b *testing.B) {
	l := randomList(1, 10000)
	var buf bytes.Buffer
	w := NaiveTSV{}.NewWriter(&buf)
	for j := 0; j < l.Len(); j++ {
		w.WriteEdge(l.U[j], l.V[j])
	}
	w.Flush()
	data := buf.Bytes()
	b.SetBytes(int64(l.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NaiveTSV{}.NewReader(bytes.NewReader(data))
		for {
			if _, _, err := r.ReadEdge(); err == io.EOF {
				break
			}
		}
	}
}

package fastio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/edge"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

// powersOf10 is 10ᵏ for k = 1…19: with 10ᵏ−1, the values on each side of
// every change in digit count.
var powersOf10 = []uint64{1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

func TestAppendUintMatchesStrconv(t *testing.T) {
	cases := []uint64{0, 1, 9, 10, 99, 100, 12345, math.MaxUint64, math.MaxUint64 - 1}
	for _, p := range powersOf10 { // each side of every digit count: the one-word formatter stops at 10⁸
		cases = append(cases, p-1, p)
	}
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
			got, err := drain(t, c.NewReader(bytes.NewReader(encode(t, c, l, l.Len()))), 4096)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(l) {
				t.Errorf("round trip lost or reordered edges: %d vs %d", got.Len(), l.Len())
			}
		})
	}
}

func TestTSVWireFormat(t *testing.T) {
	l := edge.NewList(2)
	l.Append(3, 14)
	l.Append(15, 92)
	want := "3\t14\n15\t92\n"
	if got := string(encode(t, TSV{}, l, 1)); got != want {
		t.Errorf("TSV encoding = %q, want %q", got, want)
	}
}

func TestNaiveAndFastTSVIdenticalOutput(t *testing.T) {
	l := randomList(7, 500)
	if !bytes.Equal(encode(t, TSV{}, l, l.Len()), encode(t, NaiveTSV{}, l, l.Len())) {
		t.Error("optimized and naive TSV writers disagree on the wire format")
	}
}

func TestTSVReaderCrossParsesNaiveOutput(t *testing.T) {
	// Differential test: each TSV reader must parse the other writer's bytes.
	l := randomList(8, 300)
	got, err := drain(t, TSV{}.NewReader(bytes.NewReader(encode(t, NaiveTSV{}, l, l.Len()))), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Fatalf("decoded %d edges unlike the %d written", got.Len(), l.Len())
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
			got, err := drain(t, TSV{}.NewReader(strings.NewReader(c.input)), 1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != len(c.want) {
				t.Fatalf("got %v %v, want %v", got.U, got.V, c.want)
			}
			for i, e := range c.want {
				if got.U[i] != e[0] || got.V[i] != e[1] {
					t.Fatalf("got %v %v, want %v", got.U, got.V, c.want)
				}
			}
		})
	}
}

// tsvErrorCases are malformed inputs with the error readEdge must end in
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

		n, err := scanCount(c.input)
		check("readEdge", n, err)

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
		l, err = drain(t, src, 1)
		check("StripedSource", l.Len(), err)
		src.Close()
	}
}

func TestBinaryReaderTruncated(t *testing.T) {
	r := Binary{}.NewReader(bytes.NewReader(make([]byte, 20))) // 1.25 records
	l := edge.NewList(0)
	if n, err := r.ReadEdges(l, 1); n != 1 || err != nil {
		t.Fatalf("first record: %d, %v", n, err)
	}
	if _, err := r.ReadEdges(l, 1); err == nil || err == io.EOF {
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
// list it is handed, at one worker and at three.  One whose capacity is
// exactly the stripes' edge count — kernel 0's list handed to kernel 1 —
// comes back with the same backing arrays (no regrowth for slack, across
// several pieces and stripes); stale contents, longer or shorter, never
// show through; a list that is too small is regrown; nil makes a new one.
func TestReadStripedIntoFillsInPlace(t *testing.T) {
	l := randomList(9, 2*readChunkEdges+4321)
	for _, nfiles := range []int{1, 3} {
		for _, c := range allCodecs {
			fs := vfs.NewMem()
			if err := WriteStriped(fs, "k0", c, nfiles, l); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				exact := randomList(10, l.Len()) // same size, other edges
				u0, v0 := &exact.U[0], &exact.V[0]
				got, err := ReadStripedInto(fs, "k0", c, exact, workers)
				if err != nil {
					t.Fatalf("%s/%d/w%d: %v", c.Name(), nfiles, workers, err)
				}
				if got != exact || &got.U[0] != u0 || &got.V[0] != v0 {
					t.Errorf("%s/%d/w%d: a list of exactly the right capacity was reallocated", c.Name(), nfiles, workers)
				}
				if !got.Equal(l) {
					t.Errorf("%s/%d/w%d: decode into an exact list corrupted edges", c.Name(), nfiles, workers)
				}
				for name, dst := range map[string]*edge.List{
					"nil": nil, "empty": edge.NewList(0), "short": randomList(11, 100), "long": randomList(12, l.Len()+5000),
				} {
					got, err := ReadStripedInto(fs, "k0", c, dst, workers)
					if err != nil || !got.Equal(l) {
						t.Errorf("%s/%d/w%d into a %s list: err %v, equal %v", c.Name(), nfiles, workers, name, err, err == nil && got.Equal(l))
					}
					if dst != nil && got != dst {
						t.Errorf("%s/%d/w%d into a %s list: returned another list", c.Name(), nfiles, workers, name)
					}
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

// TestStripedSourceStreams: a StripedSource reads back, in order, the
// stripes WriteStriped wrote, for every codec and stripe count (more
// stripes than edges too), in reads of 1, 13, 4096 and all the edges, and
// in pieces of 100 bytes (records and blocks straddle them) and of
// streamBlock.
func TestStripedSourceStreams(t *testing.T) {
	long, short := splitList(), randomList(4, 5)
	for _, c := range Codecs() {
		for _, tc := range []struct {
			l      *edge.List
			nfiles int
		}{{long, 1}, {long, 3}, {long, 7}, {short, 8}} {
			fs := vfs.NewMem()
			if err := WriteStriped(fs, "e", c, tc.nfiles, tc.l); err != nil {
				t.Fatal(err)
			}
			names, err := StripeNames(fs, "e", c)
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{100, streamBlock} {
				for _, batch := range []int{1, 13, 4096, tc.l.Len()} {
					src := &StripedSource{in: newPieceReader(fs, c, names, block)}
					got, err := drain(t, src, batch)
					src.Close()
					if err != nil || !got.Equal(tc.l) {
						t.Errorf("%s/%d stripes/block %d/reads of %d: %d of %d edges, %v",
							c.Name(), tc.nfiles, block, batch, got.Len(), tc.l.Len(), err)
					}
				}
			}
		}
	}
}

// TestStripedSourceDrainAllocs pins what a drained stream allocates: a
// StripedSource over one stripe of 2²⁰ edges sorted by u, read to its end
// 4096 edges at a time, allocates no more, in count or bytes, than the
// read-ahead it replaced (a stage and three batches of 4096 edges beside
// the codec's reader), whose figures these bounds are.
func TestStripedSourceDrainAllocs(t *testing.T) {
	l := randomList(5, 1<<20)
	slices.Sort(l.U)
	dst := edge.NewList(4096)
	for _, c := range []struct {
		codec         Codec
		allocs, bytes uint64
	}{{Packed{}, 34, 535_000}, {TSV{}, 32, 371_000}, {Binary{}, 30, 273_000}} {
		fs := vfs.NewMem()
		if err := WriteStriped(fs, "s", c.codec, 1, l); err != nil {
			t.Fatal(err)
		}
		drainOnce := func() {
			src, err := NewStripedSource(fs, "s", c.codec)
			if err != nil {
				t.Fatal(err)
			}
			for err == nil {
				dst.Reset()
				_, err = src.ReadEdges(dst, 4096)
			}
			if err != io.EOF {
				t.Fatal(err)
			}
			src.Close()
		}
		drainOnce()
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			drainOnce()
		}
		runtime.ReadMemStats(&after)
		allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: a drain allocated %d times, %d B; the bound is %d times, %d B",
				c.codec.Name(), allocs, bytes, c.allocs, c.bytes)
		}
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

func BenchmarkNaiveTSVRead(b *testing.B) {
	l := randomList(1, 10000)
	data := encode(b, NaiveTSV{}, l, l.Len())
	b.SetBytes(int64(l.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, dst := NaiveTSV{}.NewReader(bytes.NewReader(data)), edge.NewList(0)
		for {
			if _, err := r.ReadEdges(dst, readChunkEdges); err != nil {
				break
			}
		}
	}
}

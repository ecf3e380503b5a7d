package fastio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// encode writes l[0:n) to a fresh writer of c in batches of at most batch
// edges and returns the flushed bytes.
func encode(t testing.TB, c Codec, l *edge.List, batch int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := c.NewWriter(&buf)
	for lo := 0; lo < l.Len(); lo += batch {
		if err := WriteEdges(w, l, lo, min(lo+batch, l.Len())); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readChunkEdges is the batch the tests' read loops ask for.
const readChunkEdges = 16 << 10

// drain reads src to its end in batches of at most batch edges, holding it
// to the EdgeSource contract.  It returns the edges read and what ended the
// stream: nil for io.EOF, else the error.
func drain(t testing.TB, src EdgeSource, batch int) (*edge.List, error) {
	t.Helper()
	l := edge.NewList(0)
	for {
		before := l.Len()
		n, err := ReadEdges(src, l, batch)
		if n < 0 || n > batch || l.Len() != before+n {
			t.Fatalf("ReadEdges(%d) returned %d and appended %d", batch, n, l.Len()-before)
		}
		switch {
		case err == io.EOF && n != 0:
			t.Fatalf("ReadEdges returned %d edges with io.EOF", n)
		case err == io.EOF:
			return l, nil
		case err != nil:
			return l, err
		case n == 0:
			t.Fatal("ReadEdges returned (0, nil): the contract requires progress or io.EOF")
		}
	}
}

// splitList is long enough to cross a Packed block and holds every digit
// count's boundary values.
func splitList() *edge.List {
	l := randomList(21, PackedBlockEdges+1000)
	for _, p := range powersOf10 {
		l.Append(p-1, p)
	}
	l.Append(0, math.MaxUint64)
	return l
}

// TestBulkFallbackMatchesNative: how a stream is cut into WriteEdges and
// ReadEdges calls changes nothing.  For every codec, batches of 1 (one
// edge per call, as a per-edge writer would make them), 7, 777 and all
// the edges encode to the same bytes and decode back to the list.
func TestBulkFallbackMatchesNative(t *testing.T) {
	l := splitList()
	for _, c := range Codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			whole := encode(t, c, l, l.Len())
			for _, b := range []int{1, 7, 777, l.Len()} {
				if got := encode(t, c, l, b); !bytes.Equal(got, whole) {
					t.Fatalf("writes of %d edges encode %d bytes unlike one write's %d", b, len(got), len(whole))
				}
				got, err := drain(t, c.NewReader(bytes.NewReader(whole)), b)
				if err != nil || !got.Equal(l) {
					t.Fatalf("reads of %d edges: %d edges, %v", b, got.Len(), err)
				}
			}
		})
	}
}

// TestStripedSinkBulkMatchesPerEdge: stripe boundaries land on the same
// edges however the sink is fed.  For every codec, a StripedSink fed in
// batches of 1, 7, 777 or all the edges writes the same stripes (bytes
// and sizes) at every stripe count.
func TestStripedSinkBulkMatchesPerEdge(t *testing.T) {
	l := splitList()
	for _, c := range Codecs() {
		for _, nfiles := range []int{1, 3, 7} {
			var want map[string][]byte
			for _, b := range []int{1, 7, 777, l.Len()} {
				got := stripeSinkBytes(t, c, nfiles, l, b)
				if len(got) != nfiles {
					t.Fatalf("%s nfiles=%d, batches of %d: %d stripes", c.Name(), nfiles, b, len(got))
				}
				if want == nil {
					want = got
				}
				for name, data := range got {
					if !bytes.Equal(data, want[name]) {
						t.Fatalf("%s nfiles=%d: %s holds %d bytes in batches of %d, %d in batches of 1",
							c.Name(), nfiles, name, len(data), b, len(want[name]))
					}
				}
			}
		}
	}
}

// stripeSinkBytes writes l through a StripedSink in batches of batch edges
// and returns the contents of every stripe, checking they read back as l.
func stripeSinkBytes(t *testing.T, c Codec, nfiles int, l *edge.List, batch int) map[string][]byte {
	t.Helper()
	fs := vfs.NewMem()
	s, err := NewStripedSink(fs, "k0", c, nfiles, int64(l.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < l.Len(); lo += batch {
		if err := WriteEdges(s, l, lo, min(lo+batch, l.Len())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadStriped(fs, "k0", c); err != nil || !got.Equal(l) {
		t.Fatalf("striped round trip in batches of %d: %v", batch, err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	stripes := map[string][]byte{}
	for _, name := range names {
		r, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if stripes[name], err = io.ReadAll(r); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	return stripes
}

// TestReadEdgesEndMidBatch: every codec's own ReadEdges returns the edges
// left, with no error, when the stream ends inside a batch, and then
// (0, io.EOF) on every later call.
func TestReadEdgesEndMidBatch(t *testing.T) {
	l := randomList(24, 7)
	for _, c := range Codecs() {
		src := c.NewReader(bytes.NewReader(encode(t, c, l, l.Len())))
		got := edge.NewList(0)
		if n, err := src.ReadEdges(got, 100); n != 7 || err != nil {
			t.Fatalf("%s: first batch = %d, %v; want 7, nil", c.Name(), n, err)
		}
		for range 2 {
			if n, err := src.ReadEdges(got, 100); n != 0 || err != io.EOF {
				t.Fatalf("%s: batch past the end = %d, %v; want 0, io.EOF", c.Name(), n, err)
			}
		}
		if !got.Equal(l) {
			t.Fatalf("%s: read corrupted edges", c.Name())
		}
	}
}

// TestReadEdgesDecodesInPlace: a codec decodes into the spare capacity of
// the list it is handed.  Reading a whole stream into a list presized to it
// allocates nothing and leaves the list's arrays where they were.
func TestReadEdgesDecodesInPlace(t *testing.T) {
	l := splitList()
	const runs = 5
	for _, c := range Codecs() {
		data := encode(t, c, l, l.Len())
		srcs := make([]EdgeSource, runs+1) // AllocsPerRun calls once more to warm up
		for i := range srcs {
			srcs[i] = c.NewReader(bytes.NewReader(data))
		}
		dst := edge.NewList(l.Len())
		u0 := &dst.U[:1][0]
		var err error
		allocs := testing.AllocsPerRun(runs, func() {
			src := srcs[0]
			srcs = srcs[1:]
			dst.Reset()
			for err == nil {
				_, err = src.ReadEdges(dst, readChunkEdges)
			}
			if err == io.EOF {
				err = nil
			}
		})
		if err != nil || !dst.Equal(l) {
			t.Fatalf("%s: %d edges, %v", c.Name(), dst.Len(), err)
		}
		if allocs != 0 || &dst.U[0] != u0 {
			t.Errorf("%s: a read into a presized list made %v allocations, moved %v", c.Name(), allocs, &dst.U[0] != u0)
		}
	}
}

func TestWriteEdgesBounds(t *testing.T) {
	l := randomList(22, 10)
	for _, c := range Codecs() {
		sink := c.NewWriter(io.Discard)
		for _, r := range [][2]int{{-1, 5}, {0, 11}, {7, 3}} {
			if err := WriteEdges(sink, l, r[0], r[1]); err == nil {
				t.Errorf("%s: range [%d:%d) accepted", c.Name(), r[0], r[1])
			}
		}
		if err := WriteEdges(sink, l, 4, 4); err != nil {
			t.Errorf("%s: empty range rejected: %v", c.Name(), err)
		}
	}
}

func TestReadEdgesZeroMax(t *testing.T) {
	for _, c := range Codecs() {
		src := c.NewReader(bytes.NewReader(encode(t, c, randomList(23, 5), 5)))
		l := edge.NewList(0)
		for _, max := range []int{0, -3} {
			if n, err := ReadEdges(src, l, max); n != 0 || err != nil {
				t.Errorf("%s: ReadEdges(max=%d) = %d, %v; want 0, nil", c.Name(), max, n, err)
			}
		}
	}
}

// TestBinaryReadEdgesTruncated: a torn fixed-width record is an error, not
// a silent drop, after the whole records before it.
func TestBinaryReadEdgesTruncated(t *testing.T) {
	l := edge.NewList(0)
	for i := uint64(0); i < 10; i++ {
		l.Append(i, i)
	}
	data := encode(t, Binary{}, l, l.Len())
	got, err := drain(t, Binary{}.NewReader(bytes.NewReader(data[:len(data)-5])), 4)
	if err == nil {
		t.Fatal("truncated binary stream read cleanly")
	}
	if got.Len() != 9 {
		t.Errorf("decoded %d intact edges before the tear, want 9", got.Len())
	}
}

// TestReadEdgesTornRead: a read error that cuts a stream's last record
// short comes back after the whole records before it, from every codec,
// and the torn record never decodes as an edge.  (bufio.Scanner hands
// NaiveTSV the torn line as a last token, with the error beside it.)
func TestReadEdgesTornRead(t *testing.T) {
	errTorn := errors.New("torn read")
	l := edge.NewList(2)
	l.Append(1, 2)
	l.Append(123, 45)
	for _, c := range Codecs() {
		var buf bytes.Buffer
		w := c.NewWriter(&buf)
		for i := range 2 { // an edge per Packed block: the tear cuts only the second
			if err := WriteEdges(w, l, i, i+1); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		data := buf.Bytes() // tsv: "1\t2\n123\t45\n"
		torn := io.MultiReader(bytes.NewReader(data[:len(data)-1]), iotest.ErrReader(errTorn))
		got, err := drain(t, c.NewReader(torn), 1000)
		if !errors.Is(err, errTorn) || got.Len() != 1 || got.U[0] != 1 || got.V[0] != 2 {
			t.Errorf("%s: %d edges %v %v, then %v; want (1, 2), then the read error", c.Name(), got.Len(), got.U, got.V, err)
		}
	}
}

package fastio

import (
	"bytes"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/edge"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

// encodePacked runs l through the Packed writer and returns the wire bytes.
func encodePacked(t testing.TB, l *edge.List) []byte {
	t.Helper()
	return encode(t, Packed{}, l, l.Len())
}

// decodePacked reads all of b back, failing t on an error.
func decodePacked(t testing.TB, b []byte) *edge.List {
	t.Helper()
	l, err := drain(t, Packed{}.NewReader(bytes.NewReader(b)), 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// degenerateLists covers the shapes the pipeline can feed a codec: empty,
// single edge, boundary values, constant u, strictly descending u (the
// deltas go negative), and a multi-block sorted list.
func degenerateLists() map[string]*edge.List {
	empty := edge.NewList(0)
	one := edge.NewList(1)
	one.Append(42, 7)
	bounds := edge.NewList(4)
	bounds.Append(0, 0)
	bounds.Append(math.MaxUint64, math.MaxUint64)
	bounds.Append(0, math.MaxUint64)
	bounds.Append(math.MaxUint64, 0)
	constU := edge.NewList(100)
	for i := 0; i < 100; i++ {
		constU.Append(5, uint64(i))
	}
	desc := edge.NewList(100)
	for i := 100; i > 0; i-- {
		desc.Append(uint64(i)<<40, uint64(i))
	}
	multi := edge.NewList(3 * PackedBlockEdges)
	for i := 0; i < 3*PackedBlockEdges; i++ {
		multi.Append(uint64(i/16), uint64(i)*2654435761%(1<<20))
	}
	return map[string]*edge.List{
		"empty": empty, "one": one, "bounds": bounds,
		"constU": constU, "descending": desc, "multiBlock": multi,
	}
}

func TestPackedRoundTripDegenerate(t *testing.T) {
	lists := degenerateLists()
	for _, name := range slices.Sorted(maps.Keys(lists)) {
		l := lists[name]
		t.Run(name, func(t *testing.T) {
			got := decodePacked(t, encodePacked(t, l))
			if !got.Equal(l) {
				t.Errorf("round trip corrupted %s: %d vs %d edges", name, got.Len(), l.Len())
			}
		})
	}
}

func TestAllCodecsRoundTripDegenerate(t *testing.T) {
	lists := degenerateLists()
	for _, c := range Codecs() {
		for _, name := range slices.Sorted(maps.Keys(lists)) {
			l := lists[name]
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				var buf bytes.Buffer
				w := c.NewWriter(&buf)
				if err := WriteEdges(w, l, 0, l.Len()); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				r := c.NewReader(&buf)
				got := edge.NewList(0)
				for {
					if _, err := ReadEdges(r, got, 4096); err != nil {
						if err == io.EOF {
							break
						}
						t.Fatal(err)
					}
				}
				if !got.Equal(l) {
					t.Errorf("%s round trip corrupted %s", c.Name(), name)
				}
			})
		}
	}
}

// TestPackedBulkMatchesPerEdge pins the wire format across block
// boundaries: writing one edge per call produces the same bytes as one
// bulk write, and reading one edge per call decodes them back.
func TestPackedBulkMatchesPerEdge(t *testing.T) {
	g := xrand.New(11)
	l := edge.NewList(0)
	for i := 0; i < 2*PackedBlockEdges+37; i++ {
		l.Append(g.Uint64n(1<<30), g.Uint64n(1<<30))
	}
	bulk := encodePacked(t, l)
	if !bytes.Equal(bulk, encode(t, Packed{}, l, 1)) {
		t.Fatal("bulk and one-edge writes disagree on the wire bytes")
	}
	got, err := drain(t, Packed{}.NewReader(bytes.NewReader(bulk)), 1)
	if err != nil || !got.Equal(l) {
		t.Fatalf("one-edge reads of the bulk output: %d edges, %v", got.Len(), err)
	}
}

// TestPackedSortedSmallerThanBinary is the codec's reason to exist: on
// kernel-1-sorted input it must beat the 16-byte fixed-width record.
func TestPackedSortedSmallerThanBinary(t *testing.T) {
	g := xrand.New(3)
	l := edge.NewList(0)
	u := uint64(0)
	for i := 0; i < 50000; i++ {
		u += g.Uint64n(3)
		l.Append(u, g.Uint64n(1<<20))
	}
	b := encodePacked(t, l)
	perEdge := float64(len(b)) / float64(l.Len())
	if perEdge >= 8 {
		t.Errorf("packed sorted encoding = %.2f B/edge, want well under binary's 16", perEdge)
	}
}

func TestPackedEmptyAndMagicOnlyFiles(t *testing.T) {
	// Zero-byte stream: valid empty.
	l := edge.NewList(0)
	r := Packed{}.NewReader(bytes.NewReader(nil))
	if _, err := r.ReadEdges(l, 1); err != io.EOF {
		t.Errorf("zero-byte file: err = %v, want io.EOF", err)
	}
	// Flushed-empty stream: magic only, also valid empty.
	b := encodePacked(t, edge.NewList(0))
	if string(b) != packedMagic {
		t.Fatalf("empty flushed stream = %q, want just the magic", b)
	}
	r = Packed{}.NewReader(bytes.NewReader(b))
	if _, err := r.ReadEdges(l, 1); err != io.EOF {
		t.Errorf("magic-only file: err = %v, want io.EOF", err)
	}
	// io.EOF must repeat.
	if _, err := r.ReadEdges(l, 1); err != io.EOF {
		t.Errorf("second read after EOF: err = %v, want io.EOF", err)
	}
}

// TestPackedTruncation truncates a valid stream at every byte boundary;
// the reader must return the intact prefix edges and then an error or a
// clean EOF — never invented edges, never a panic.
func TestPackedTruncation(t *testing.T) {
	l := edge.NewList(600)
	for i := 0; i < 600; i++ {
		l.Append(uint64(i), uint64(i)*3)
	}
	full := encodePacked(t, l)
	for cut := 0; cut < len(full); cut++ {
		r := Packed{}.NewReader(bytes.NewReader(full[:cut]))
		got := edge.NewList(0)
		var err error
		for err == nil {
			_, err = ReadEdges(r, got, 256)
		}
		if err == io.EOF && cut > 0 && cut < len(full) && got.Len() == l.Len() {
			t.Fatalf("cut=%d: truncated stream decoded all %d edges cleanly", cut, l.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if got.U[i] != l.U[i] || got.V[i] != l.V[i] {
				t.Fatalf("cut=%d: edge %d = (%d,%d), want (%d,%d)", cut, i, got.U[i], got.V[i], l.U[i], l.V[i])
			}
		}
	}
}

func TestPackedCorruption(t *testing.T) {
	mk := func(tail []byte) []byte { return append([]byte(packedMagic), tail...) }
	cases := map[string][]byte{
		"badMagic":        []byte("NOTPACKD"),
		"shortMagic":      []byte(packedMagic[:4]),
		"zeroCount":       mk([]byte{0x00, 0x02, 1, 1}),
		"hugeCount":       mk([]byte{0xFF, 0xFF, 0x7F, 0x10}),
		"payloadTooShort": mk([]byte{0x02, 0x01, 1}),
		"payloadTooLong":  mk(append([]byte{0x01, 0x7F}, make([]byte, 127)...)),
		"truncPayload":    mk([]byte{0x02, 0x04, 1, 1}),
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		b := cases[name]
		t.Run(name, func(t *testing.T) {
			if _, err := drain(t, Packed{}.NewReader(bytes.NewReader(b)), 1); err == nil {
				t.Errorf("%s accepted as a clean stream", name)
			}
		})
	}
	// Trailing bytes inside a block payload: header says 1 edge but the
	// payload holds more bytes than that edge consumes.
	b := mk([]byte{0x01, 0x04, 2, 2, 0, 0}) // 1 edge, 4-byte payload, edge uses 2
	_, err := Packed{}.NewReader(bytes.NewReader(b)).ReadEdges(edge.NewList(0), 1)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing payload bytes: err = %v, want trailing-bytes error", err)
	}
}

func TestDetect(t *testing.T) {
	fs := vfs.NewMem()
	l := randomList(9, 64)
	for _, c := range Codecs() {
		// With extension: decided by name alone.
		if err := WriteStriped(fs, "x/"+c.Name(), c, 1, l); err != nil {
			t.Fatal(err)
		}
		got, err := Detect(fs, StripeName("x/"+c.Name(), c, 0))
		if err != nil || got.Name() != c.Name() {
			t.Errorf("Detect by extension: got %v, %v; want %s", got, err, c.Name())
		}
	}
	// Extensionless content sniffing.
	write := func(name string, c Codec) {
		w, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		sink := c.NewWriter(w)
		if err := WriteEdges(sink, l, 0, l.Len()); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("raw-tsv", TSV{})
	write("raw-bin", Binary{})
	write("raw-packed", Packed{})
	for name, want := range map[string]string{
		"raw-tsv": "tsv", "raw-bin": "bin", "raw-packed": "packed",
	} {
		got, err := Detect(fs, name)
		if err != nil || got.Name() != want {
			t.Errorf("Detect(%s) = %v, %v; want %s", name, got, err, want)
		}
	}
	// Extensionless empty file is undetectable.
	w, _ := fs.Create("raw-empty")
	w.Close()
	if _, err := Detect(fs, "raw-empty"); err == nil {
		t.Error("Detect accepted an extensionless empty file")
	}
}

func TestDetectStriped(t *testing.T) {
	l := randomList(10, 100)
	for _, c := range Codecs() {
		fs := vfs.NewMem()
		if err := WriteStriped(fs, "k0", c, 3, l); err != nil {
			t.Fatal(err)
		}
		got, err := DetectStriped(fs, "k0")
		if err != nil || got.Name() != c.Name() {
			t.Errorf("DetectStriped = %v, %v; want %s", got, err, c.Name())
		}
	}
	if _, err := DetectStriped(vfs.NewMem(), "k0"); err == nil {
		t.Error("DetectStriped accepted an empty FS")
	}
}

func TestCodecByName(t *testing.T) {
	for _, name := range CodecNames() {
		c, err := CodecByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("CodecByName(%s) = %v, %v", name, c, err)
		}
	}
	if _, err := CodecByName("zstd"); err == nil {
		t.Error("CodecByName accepted an unknown name")
	}
}

func TestPackedBytesPerEdgeEstimate(t *testing.T) {
	if got := (Packed{}).BytesPerEdge(1 << 20); got <= 2 || got >= 16 {
		t.Errorf("BytesPerEdge(2^20) = %v, want in (2, 16)", got)
	}
}

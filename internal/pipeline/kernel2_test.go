package pipeline

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/sparse"
	"repro/internal/vfs"
)

// rowSpan is a fastio.PieceSink that records the most pieces one start
// vertex spans and the pieces read.
type rowSpan struct {
	first, last []uint64
	empty       []bool
	prev        uint64 // the last piece's last vertex
	run, most   int    // pieces the last row spans so far, and the most
	pieces      int    // the non-empty pieces taken
}

func (s *rowSpan) Start(slots int) {
	s.first, s.last, s.empty = make([]uint64, slots), make([]uint64, slots), make([]bool, slots)
}

func (s *rowSpan) Piece(slot, _ int, us, _ []uint64) error {
	if s.empty[slot] = len(us) == 0; !s.empty[slot] {
		s.first[slot], s.last[slot] = us[0], us[len(us)-1]
	}
	return nil
}

func (s *rowSpan) Take(slot int, err error) error {
	if err != nil || s.empty[slot] {
		return err
	}
	if s.pieces > 0 && s.first[slot] == s.prev {
		s.run++
	} else {
		s.run = 1
	}
	s.most = max(s.most, s.run)
	if s.first[slot] != s.last[slot] {
		s.run = 1
	}
	s.prev = s.last[slot]
	s.pieces++
	return nil
}

// probeFS is a vfs.FS that records the most goroutines alive at any Open
// or Read.
type probeFS struct {
	vfs.FS
	most atomic.Int64
}

func (p *probeFS) see() {
	n := int64(runtime.NumGoroutine())
	for m := p.most.Load(); n > m && !p.most.CompareAndSwap(m, n); m = p.most.Load() {
	}
}

func (p *probeFS) Open(name string) (io.ReadCloser, error) {
	p.see()
	r, err := p.FS.Open(name)
	return probeReader{r, p}, err
}

type probeReader struct {
	io.ReadCloser
	p *probeFS
}

func (r probeReader) Read(b []byte) (int, error) { r.p.see(); return r.ReadCloser.Read(b) }

// writeEmptyStripes rewrites the k1 stripes of fs as four: the first half
// of the edges, none, the second half, none.
func writeEmptyStripes(t *testing.T, fs vfs.FS, codec fastio.Codec) {
	l, err := fastio.ReadStriped(fs, "k1", codec)
	if err != nil {
		t.Fatal(err)
	}
	names, _ := fastio.StripeNames(fs, "k1", codec)
	for _, name := range names {
		if err := fs.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	half := l.Len() / 2
	for i, part := range []*edge.List{l.Slice(0, half), edge.NewList(0), l.Slice(half, l.Len()), edge.NewList(0)} {
		one := vfs.NewMem()
		if err := fastio.WriteStriped(one, "x", codec, 1, part); err != nil {
			t.Fatal(err)
		}
		r, err := one.Open(fastio.StripeName("x", codec, 0))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		w, err := fs.Create(fastio.StripeName("k1", codec, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKernel2WidthInvariance runs kernel 2, then kernel 3's set-up (the
// ordered transpose), alone over the k1 stripes kernels 0 and 1 wrote, at
// Workers 1, 2, 3 and 8, for every format, by u and by (u, v), over one
// stripe, three, and four of which two are empty.  Kernel 2 reads pieces
// of 100 bytes, so hub rows straddle three pieces and more (Packed pieces
// are whole 4096-edge blocks, which no row here fills).  The counting matrix's mass, the filtered
// matrix's bits, the filter's statistics and every array of the ordered
// transpose must be width 1's — and width 1's with whole-size pieces —
// and width 1 must read with no goroutine beside the caller's.
func TestKernel2WidthInvariance(t *testing.T) {
	defer func() { k2PieceBytes = k2PieceSize }()
	for _, format := range []string{"tsv", "bin", "packed", "naivetsv"} {
		for _, nfiles := range []int{1, 3, 4} {
			for _, sortEnds := range []bool{false, true} {
				at := fmt.Sprintf("%s/%d files/sortends %v", format, nfiles, sortEnds)
				fs := vfs.NewMem()
				cfg := Config{Scale: 10, Seed: 3, NFiles: min(nfiles, 3), Format: format, Variant: "csr",
					SortEndVertices: sortEnds, FS: fs}.withDefaults()
				if _, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K0Generate, K1Sort}); err != nil {
					t.Fatal(err)
				}
				codec := (&Run{Cfg: cfg}).Codec()
				if nfiles == 4 {
					writeEmptyStripes(t, fs, codec)
				}
				k2PieceBytes = k2PieceSize
				whole := kernel2Alone(t, at, cfg, fs, 1)
				k2PieceBytes = func(*Run) int { return 100 }
				var span rowSpan
				if _, err := fastio.ReadPieces(fs, "k1", codec, 1, 100, &span); err != nil {
					t.Fatal(err)
				}
				if want := map[bool]int{true: 1, false: 3}[format == "packed"]; span.most < want {
					t.Errorf("%s: hub rows span at most %d of %d pieces, want %d", at, span.most, span.pieces, want)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					base := runtime.NumGoroutine()
					probe := &probeFS{FS: fs}
					got := kernel2Alone(t, at, cfg, probe, workers)
					if workers == 1 && probe.most.Load() > int64(base) {
						t.Errorf("%s/w1: %d goroutines beside the caller's %d", at, probe.most.Load(), base)
					}
					if err := got.differs(whole); err != nil {
						t.Errorf("%s/w%d: %v", at, workers, err)
					}
				}
			}
		}
	}
}

// kernel2Result is what TestKernel2WidthInvariance compares.
type kernel2Result struct {
	mass  float64
	a     *sparse.CSR
	stats FilterStats
	t     *sparse.Ordered
}

// kernel2Alone runs kernel 2 and the transpose at workers over fs.
func kernel2Alone(t *testing.T, at string, cfg Config, fs vfs.FS, workers int) kernel2Result {
	cfg.Workers = workers
	r := &Run{Cfg: cfg, FS: fs}
	a, err := readMatrix(r)
	if err != nil {
		t.Fatalf("%s/w%d: %v", at, workers, err)
	}
	st := a.Kernel2Filter(workers)
	r.Matrix = a
	return kernel2Result{mass: r.MatrixMass, a: a, stats: st, t: r.Transposed()}
}

// differs returns what of r differs from want's bits, or nil.
func (r kernel2Result) differs(want kernel2Result) error {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	a, b, s, w := r.a, want.a, r.t, want.t
	switch {
	case r.mass != want.mass:
		return fmt.Errorf("matrix mass %v, want %v", r.mass, want.mass)
	case !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.Col, b.Col) || !slices.EqualFunc(a.Val, b.Val, bits):
		return fmt.Errorf("the matrix differs")
	case r.stats != want.stats:
		return fmt.Errorf("filter statistics %+v, want %+v", r.stats, want.stats)
	case !slices.Equal(s.Label, w.Label) || !slices.Equal(s.Ptr, w.Ptr) || !slices.Equal(s.Col, w.Col) ||
		!slices.Equal(s.Src, w.Src) || !slices.EqualFunc(s.Scale, w.Scale, bits) || !slices.EqualFunc(s.Extra, w.Extra, bits):
		return fmt.Errorf("the ordered transpose differs")
	}
	return nil
}

// kernel2HostilePieces is TestKernel2HostileStripes over tsv stripes that
// kernel 2 reads in pieces of 10 bytes, two records each: an unsorted edge
// or an out-of-range vertex at the first record of a later piece, or of a
// later stripe, fails kernel 2 at Workers 1, 2 and 3 with width 1's
// error, which names kernel 2 and the first bad edge in stream order,
// though a second bad edge follows in a later piece.
func kernel2HostilePieces(t *testing.T) {
	was := k2PieceBytes
	defer func() { k2PieceBytes = was }()
	k2PieceBytes = func(*Run) int { return 10 }
	var clean [][2]uint64
	for u := range uint64(8) {
		for v := range 2 + 3*(u%3) {
			clean = append(clean, [2]uint64{u, v % 8})
		}
	}
	// The first record of each piece of one stripe of the clean edges.
	starts := &pieceStarts{}
	if _, err := fastio.ReadPieces(tsvStripes(t, [][][2]uint64{clean}), "k1", fastio.TSV{}, 1, 10, starts); err != nil {
		t.Fatal(err)
	}
	if len(starts.offs) < 4 {
		t.Fatalf("the stripe is %d pieces, want more than 3", len(starts.offs))
	}
	at, later := starts.offs[2], starts.offs[len(starts.offs)-1]
	bad := func(stripes [][][2]uint64, e [2]uint64, i int) [][][2]uint64 {
		out := make([][][2]uint64, len(stripes))
		for s := range stripes {
			out[s] = slices.Clone(stripes[s])
		}
		for s := range out {
			if i < len(out[s]) {
				out[s][i] = e
				return out
			}
			i -= len(out[s])
		}
		panic("no such edge")
	}
	twoStripes := [][][2]uint64{clean[:at], clean[at:]}
	prev := clean[at-1][0]
	unsorted := fmt.Sprintf("start vertex %d after %d", prev-1, prev)
	for _, tc := range []struct {
		name    string
		stripes [][][2]uint64
		want    string
	}{
		{"unsorted at a piece's first record", bad(bad([][][2]uint64{clean}, [2]uint64{prev - 1, 1}, at), [2]uint64{0, 0}, later), unsorted},
		{"out of range at a piece's first record", bad(bad([][][2]uint64{clean}, [2]uint64{clean[at][0], 9}, at), [2]uint64{9, 0}, later),
			fmt.Sprintf("edge (%d,9) out of range", clean[at][0])},
		{"unsorted at a stripe's first record", bad(bad(twoStripes, [2]uint64{prev - 1, 1}, at), [2]uint64{0, 0}, later), unsorted},
		{"out of range at a stripe's first record", bad(bad(twoStripes, [2]uint64{8, 1}, at), [2]uint64{9, 0}, later),
			"edge (8,1) out of range"},
	} {
		for _, variant := range []string{"csr", "extsort"} {
			var want string
			for _, workers := range []int{1, 2, 3} {
				cfg := Config{Scale: 3, Seed: 1, Variant: variant, Format: "tsv", Workers: workers, FS: tsvStripes(t, tc.stripes)}
				_, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K2Filter})
				switch {
				case err == nil:
					t.Errorf("%s/%s/w%d: kernel 2 succeeded", tc.name, variant, workers)
				case workers == 1:
					want = err.Error()
					if !strings.Contains(want, K2Filter.String()) || !strings.Contains(want, tc.want) {
						t.Errorf("%s/%s: %v, want a kernel 2 error with %q", tc.name, variant, err, tc.want)
					}
				case err.Error() != want:
					t.Errorf("%s/%s/w%d: %v, width 1's %s", tc.name, variant, workers, err, want)
				}
			}
		}
	}
}

// pieceStarts is a fastio.PieceSink that records each piece's offset.
type pieceStarts struct {
	slot []int
	offs []int
}

func (p *pieceStarts) Start(slots int) { p.slot = make([]int, slots) }

func (p *pieceStarts) Piece(slot, off int, _, _ []uint64) error { p.slot[slot] = off; return nil }

func (p *pieceStarts) Take(slot int, err error) error {
	p.offs = append(p.offs, p.slot[slot])
	return err
}

// tsvStripes writes each list of edges as a k1 tsv stripe.
func tsvStripes(t *testing.T, stripes [][][2]uint64) vfs.FS {
	fs := vfs.NewMem()
	for i, stripe := range stripes {
		var text strings.Builder
		for _, e := range stripe {
			fmt.Fprintf(&text, "%d\t%d\n", e[0], e[1])
		}
		w, err := fs.Create(fastio.StripeName("k1", fastio.TSV{}, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(w, text.String()); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

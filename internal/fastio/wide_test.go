package fastio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// wideLists are the lists the wide-pass tests write: every degenerate
// list, and a sorted one of 5.5 chunks whose labels reach 20 digits, so a
// stripe spans several pieces and ends inside one.
func wideLists() map[string]*edge.List {
	lists := degenerateLists()
	l := edge.NewList(11 * PackedBlockEdges / 2)
	for i := range uint64(11 * PackedBlockEdges / 2) {
		l.Append(i/3, i*0x9e3779b97f4a7c15>>(i%64))
	}
	lists["wide"] = l
	return lists
}

// TestWideWriteMatchesSink: WriteStripedWide writes the stripes a
// StripedSink writes, byte for byte, for every codec, stripe count and
// list, at widths 1, 2, 3 and 8 and in pieces of one or two Packed blocks;
// ReadStripedInto reads them back at every width, in pieces of 100 bytes
// (records and blocks straddle pieces) and of decodeBlock.
func TestWideWriteMatchesSink(t *testing.T) {
	for name, l := range wideLists() {
		for _, c := range Codecs() {
			for _, nfiles := range []int{1, 3, 7} {
				want := stripeSinkBytes(t, c, nfiles, l, l.Len()+1)
				for _, workers := range []int{1, 2, 3, 8} {
					at := fmt.Sprintf("%s/%s/%d files/w%d", name, c.Name(), nfiles, workers)
					fs := vfs.NewMem()
					for _, chunk := range []int{PackedBlockEdges, encodeChunk} {
						if err := writeStriped(fs, "k0", c, nfiles, l, workers, chunk); err != nil {
							t.Fatalf("%s/chunk %d: %v", at, chunk, err)
						}
						names, _ := fs.List()
						if len(names) != len(want) {
							t.Fatalf("%s/chunk %d: %d stripes, the sink writes %d", at, chunk, len(names), len(want))
						}
						for stripe, data := range want {
							if got := readFile(t, fs, stripe); !bytes.Equal(got, data) {
								t.Fatalf("%s/chunk %d: %s holds %d bytes, the sink's %d", at, chunk, stripe, len(got), len(data))
							}
						}
					}
					for _, block := range []int{100, decodeBlock} {
						got, err := readStriped(fs, "k0", c, nil, workers, block)
						if err != nil || !got.Equal(l) {
							t.Fatalf("%s: read in pieces of %d bytes: %v", at, block, err)
						}
					}
				}
			}
		}
	}
}

// goroutineFS is a vfs.FS that records the most goroutines alive at any
// Create, Open, Read or Write.
type goroutineFS struct {
	vfs.FS
	most atomic.Int64
}

func (g *goroutineFS) see() {
	n := int64(runtime.NumGoroutine())
	for m := g.most.Load(); n > m && !g.most.CompareAndSwap(m, n); m = g.most.Load() {
	}
}

func (g *goroutineFS) Create(name string) (io.WriteCloser, error) {
	g.see()
	w, err := g.FS.Create(name)
	return seenWriter{w, g}, err
}

func (g *goroutineFS) Open(name string) (io.ReadCloser, error) {
	g.see()
	r, err := g.FS.Open(name)
	return seenReader{r, g}, err
}

type seenWriter struct {
	io.WriteCloser
	g *goroutineFS
}

func (w seenWriter) Write(p []byte) (int, error) { w.g.see(); return w.WriteCloser.Write(p) }

type seenReader struct {
	io.ReadCloser
	g *goroutineFS
}

func (r seenReader) Read(p []byte) (int, error) { r.g.see(); return r.ReadCloser.Read(p) }

// TestWideOneWorkerStartsNoGoroutine: at one worker the whole-list write
// and read run on the caller's goroutine alone; at three, goroutines are
// seen beside it (so the probe can see them), and all are gone after.
func TestWideOneWorkerStartsNoGoroutine(t *testing.T) {
	l := randomList(3, 5*encodeChunk)
	for _, c := range []Codec{TSV{}, Binary{}, Packed{}} {
		for _, workers := range []int{1, 3} {
			base := int64(runtime.NumGoroutine())
			fs := &goroutineFS{FS: vfs.NewMem()}
			if err := WriteStripedWide(fs, "k0", c, 2, l, workers); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadStripedInto(fs, "k0", c, nil, workers); err != nil || !got.Equal(l) {
				t.Fatalf("%s/w%d: round trip: %v", c.Name(), workers, err)
			}
			if most := fs.most.Load(); (most > base) != (workers > 1) {
				t.Errorf("%s/w%d: %d goroutines at most beside the caller's %d", c.Name(), workers, most, base)
			}
			waitGoroutines(t, int(base))
		}
	}
}

// waitGoroutines fails unless the goroutine count drops back to base
// within 10 s: a joined worker may not have exited yet.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestWideFaultsNameTheStripe: a storage fault at every 1/8th of a
// three-stripe write's or read's bytes comes back from WriteStripedWide
// and ReadStripedInto at one worker and at three wrapping vfs.ErrInjected
// and naming a stripe, and leaves no goroutine behind.
func TestWideFaultsNameTheStripe(t *testing.T) {
	l := randomList(4, 7*encodeChunk)
	for _, c := range []Codec{TSV{}, NaiveTSV{}, Binary{}, Packed{}} {
		clean := vfs.NewMem()
		if err := WriteStriped(clean, "k1", c, 3, l); err != nil {
			t.Fatal(err)
		}
		total, err := StripedBytes(clean, "k1", c)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for i := range int64(8) {
				base := runtime.NumGoroutine()
				werr := WriteStripedWide(vfs.NewFaulty(vfs.NewMem(), total*i/8), "k1", c, 3, l, workers)
				_, rerr := ReadStripedInto(vfs.NewFaulty(clean, total*i/8), "k1", c, nil, workers)
				for op, err := range []error{werr, rerr} {
					if !errors.Is(err, vfs.ErrInjected) || !strings.Contains(err.Error(), "k1-000") {
						t.Errorf("%s/w%d %s at %d/8: %v, want the injected fault naming a stripe",
							c.Name(), workers, []string{"write", "read"}[op], i, err)
					}
				}
				waitGoroutines(t, base)
			}
		}
	}
}

// TestWideReadErrorIsTheFirst: a stripe set with a bad record in stripe 1
// and another in stripe 2 fails with stripe 1's error — the one a
// StripedSource reports — at every width and piece size, and a tsv line
// longer than a piece decodes or fails as it does serially.
func TestWideReadErrorIsTheFirst(t *testing.T) {
	long := strings.Repeat("0", 100) + "7\t" + strings.Repeat("0", 80) + "8\n"
	for _, stripes := range [][]string{
		{"1\t2\n", "3\t4\n5\tx\n" + strings.Repeat("6\t7\n", 50), strings.Repeat("8\t9\n", 50) + "\t\n"},
		{strings.Repeat("1\t2\n", 40), long + "3\t4\r\n" + long + "5\t6", "7\t8"},
		{long, strings.Repeat("9", 60) + "\t1\n"},
	} {
		fs := vfs.NewMem()
		for i, s := range stripes {
			w, _ := fs.Create(StripeName("k0", TSV{}, i))
			io.WriteString(w, s)
			w.Close()
		}
		src, err := NewStripedSource(fs, "k0", TSV{})
		if err != nil {
			t.Fatal(err)
		}
		want, werr := drain(t, src, 1000)
		src.Close()
		for _, workers := range []int{1, 2, 3} {
			for _, block := range []int{16, 64, decodeBlock} {
				got, err := readStriped(fs, "k0", TSV{}, nil, workers, block)
				if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() || err == nil && !got.Equal(want) {
					t.Errorf("%q w%d block %d: %v, StripedSource %v", stripes, workers, block, err, werr)
				}
			}
		}
	}
}

// listSink is a PieceSink that copies each piece in its slot and appends
// the pieces in the order it takes them, checking each one's offset.
type listSink struct {
	slots []edge.List
	offs  []int
	got   edge.List
}

func (s *listSink) Start(slots int) {
	s.slots, s.offs = make([]edge.List, slots), make([]int, slots)
}

func (s *listSink) Piece(slot, off int, us, vs []uint64) error {
	l := &s.slots[slot]
	l.Reset()
	l.U, l.V = append(l.U, us...), append(l.V, vs...)
	s.offs[slot] = off
	return nil
}

func (s *listSink) Take(slot int, err error) error {
	if err != nil {
		return err
	}
	if s.offs[slot] != s.got.Len() {
		return fmt.Errorf("piece at offset %d after %d edges", s.offs[slot], s.got.Len())
	}
	s.got.AppendList(&s.slots[slot])
	return nil
}

// TestReadPiecesMatchesReadStriped: ReadPieces hands a sink, in order and
// at their offsets, the edges ReadStripedInto reads, for every codec,
// list and stripe count, at widths 1, 2, 3 and 8 and in pieces of 100
// bytes and of decodeBlock; and on the hostile stripes of
// TestWideReadErrorIsTheFirst it fails with ReadStripedInto's error.
func TestReadPiecesMatchesReadStriped(t *testing.T) {
	for name, l := range wideLists() {
		for _, c := range Codecs() {
			for _, nfiles := range []int{1, 3} {
				fs := vfs.NewMem()
				if err := WriteStriped(fs, "k1", c, nfiles, l); err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					for _, block := range []int{100, 0} {
						var s listSink
						edges, err := ReadPieces(fs, "k1", c, workers, block, &s)
						if err != nil || edges != l.Len() || !s.got.Equal(l) {
							t.Fatalf("%s/%s/%d files/w%d/block %d: %d edges, %v", name, c.Name(), nfiles, workers, block, edges, err)
						}
					}
				}
			}
		}
	}
	long := strings.Repeat("0", 100) + "7\t" + strings.Repeat("0", 80) + "8\n"
	for _, stripes := range [][]string{
		{"1\t2\n", "3\t4\n5\tx\n" + strings.Repeat("6\t7\n", 50), strings.Repeat("8\t9\n", 50) + "\t\n"},
		{strings.Repeat("1\t2\n", 40), long + "3\t4\r\n" + long + "5\t6", "7\t8"},
		{long, strings.Repeat("9", 60) + "\t1\n"},
	} {
		fs := vfs.NewMem()
		for i, s := range stripes {
			w, _ := fs.Create(StripeName("k0", TSV{}, i))
			io.WriteString(w, s)
			w.Close()
		}
		for _, workers := range []int{1, 2, 3} {
			for _, block := range []int{16, 64, decodeBlock} {
				want, werr := readStriped(fs, "k0", TSV{}, nil, workers, block)
				var s listSink
				_, err := ReadPieces(fs, "k0", TSV{}, workers, block, &s)
				if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !s.got.Equal(want) {
					t.Errorf("%q w%d block %d: %v, ReadStripedInto %v", stripes, workers, block, err, werr)
				}
			}
		}
	}
}

// TestReadPiecesFaults: a storage fault at every 1/8th of a three-stripe
// read comes back from ReadPieces at one worker and at three wrapping
// vfs.ErrInjected and naming a stripe, one worker starts no goroutine, and
// none is left behind.
func TestReadPiecesFaults(t *testing.T) {
	l := randomList(5, 7*encodeChunk)
	for _, c := range []Codec{TSV{}, NaiveTSV{}, Binary{}, Packed{}} {
		clean := vfs.NewMem()
		if err := WriteStriped(clean, "k1", c, 3, l); err != nil {
			t.Fatal(err)
		}
		total, err := StripedBytes(clean, "k1", c)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for i := range int64(9) {
				base := runtime.NumGoroutine()
				fs := &goroutineFS{FS: vfs.NewFaulty(clean, total*i/8)}
				var s listSink
				_, err := ReadPieces(fs, "k1", c, workers, 0, &s)
				switch {
				case i == 8 && (err != nil || !s.got.Equal(l)):
					t.Errorf("%s/w%d: a clean read: %v", c.Name(), workers, err)
				case i < 8 && (!errors.Is(err, vfs.ErrInjected) || !strings.Contains(err.Error(), "k1-000")):
					t.Errorf("%s/w%d at %d/8: %v, want the injected fault naming a stripe", c.Name(), workers, i, err)
				}
				if workers == 1 && fs.most.Load() > int64(base) {
					t.Errorf("%s/w1: %d goroutines beside the caller's %d", c.Name(), fs.most.Load(), base)
				}
				waitGoroutines(t, base)
			}
		}
	}
}

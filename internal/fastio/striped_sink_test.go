package fastio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// TestStripedSinkRoundTrip: a StripedSink that expects m edges and is fed
// them in uneven batches writes the same stripe files, byte for byte, as
// WriteStriped writes for the whole list, and stripe i holds
// ⌊(i+1)m/n⌋ − ⌊im/n⌋ edges — the one layout rule, empty stripes included.
func TestStripedSinkRoundTrip(t *testing.T) {
	for _, m := range []int{1, 7, 11, 64, 1003} {
		l := randomList(10, m)
		for _, nfiles := range []int{1, 3, 4} {
			name := fmt.Sprintf("m=%d/nfiles=%d", m, nfiles)
			fs := vfs.NewMem()
			sink, err := NewStripedSink(fs, "s", TSV{}, nfiles, int64(m))
			if err != nil {
				t.Fatal(err)
			}
			for lo, step := 0, 1; lo < m; lo, step = lo+step, step*2+1 {
				if err := WriteEdges(sink, l, lo, min(lo+step, m)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			whole := vfs.NewMem()
			if err := WriteStriped(whole, "s", TSV{}, nfiles, l); err != nil {
				t.Fatal(err)
			}
			names, _ := fs.List()
			if len(names) != nfiles {
				t.Fatalf("%s: wrote %d stripes: %v", name, len(names), names)
			}
			for i := range nfiles {
				stripe := StripeName("s", TSV{}, i)
				got, want := readFile(t, fs, stripe), readFile(t, whole, stripe)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: %s differs from WriteStriped's", name, stripe)
				}
				if n, want := bytes.Count(got, []byte("\n")), (i+1)*m/nfiles-i*m/nfiles; n != want {
					t.Errorf("%s: %s holds %d edges, want %d", name, stripe, n, want)
				}
			}
			got, err := ReadStriped(fs, "s", TSV{})
			if err != nil || !got.Equal(l) {
				t.Errorf("%s: striped sink round trip: %v", name, err)
			}
		}
	}
}

// TestWriteStripedErrorNamesStripe: a storage fault inside stripe 2 of 3
// comes back from WriteStriped wrapped, naming the stripe.
func TestWriteStripedErrorNamesStripe(t *testing.T) {
	l := randomList(13, 3000)
	mem := vfs.NewMem()
	if err := WriteStriped(mem, "k1", TSV{}, 3, l); err != nil {
		t.Fatal(err)
	}
	var budget int64
	for i := range 2 {
		budget += int64(len(readFile(t, mem, StripeName("k1", TSV{}, i))))
	}
	budget += int64(len(readFile(t, mem, StripeName("k1", TSV{}, 2)))) / 2
	err := WriteStriped(vfs.NewFaulty(vfs.NewMem(), budget), "k1", TSV{}, 3, l)
	if !errors.Is(err, vfs.ErrInjected) || !strings.Contains(err.Error(), "k1-0002") {
		t.Errorf("error %v, want the injected fault naming k1-0002", err)
	}
}

// readFile returns the contents of the named file of fs.
func readFile(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestStripedSinkOverflowGoesToLastStripe(t *testing.T) {
	fs := vfs.NewMem()
	// Expect 10 edges but deliver 25: stripes 0..3 take 2 each (quota
	// 10/5=2), stripe 4 absorbs the rest.
	sink, err := NewStripedSink(fs, "o", TSV{}, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	l := edge.NewList(25)
	for i := uint64(0); i < 25; i++ {
		l.Append(i, i)
	}
	for lo := 0; lo < 25; lo += 3 {
		if err := WriteEdges(sink, l, lo, min(lo+3, 25)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	if len(names) != 5 {
		t.Fatalf("stripe count = %d, want 5", len(names))
	}
	got, err := ReadStriped(fs, "o", TSV{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 25 {
		t.Errorf("read back %d edges, want 25", got.Len())
	}
	for i := 0; i < 25; i++ {
		if u, _ := got.At(i); u != uint64(i) {
			t.Fatalf("order broken at %d: %d", i, u)
		}
	}
}

func TestStripedSinkEmptyStreamMakesOneStripe(t *testing.T) {
	fs := vfs.NewMem()
	sink, err := NewStripedSink(fs, "e", TSV{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStriped(fs, "e", TSV{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty sink produced %d edges", got.Len())
	}
}

func TestStripedSinkInvalidNFiles(t *testing.T) {
	if _, err := NewStripedSink(vfs.NewMem(), "x", TSV{}, 0, 10); err == nil {
		t.Error("nfiles=0 accepted")
	}
}

// TestStripedSinkFlushKeepsStripeOpen also pins the sink's one per-edge
// write, WriteEdge, which kronecker.GenerateTo's per-edge parameter keeps.
func TestStripedSinkFlushKeepsStripeOpen(t *testing.T) {
	fs := vfs.NewMem()
	sink, _ := NewStripedSink(fs, "f", TSV{}, 1, 100)
	sink.WriteEdge(1, 2)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	sink.WriteEdge(3, 4)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStriped(fs, "f", TSV{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("got %d edges after mid-stream Flush", got.Len())
	}
}

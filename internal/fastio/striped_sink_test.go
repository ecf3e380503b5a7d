package fastio

import (
	"testing"

	"repro/internal/edge"
	"repro/internal/vfs"
)

func TestStripedSinkRoundTrip(t *testing.T) {
	l := randomList(10, 1003)
	fs := vfs.NewMem()
	sink, err := NewStripedSink(fs, "s", TSV{}, 4, int64(l.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < l.Len(); lo += 100 {
		if err := WriteEdges(sink, l, lo, min(lo+100, l.Len())); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	if len(names) != 4 {
		t.Fatalf("wrote %d stripes, want 4: %v", len(names), names)
	}
	got, err := ReadStriped(fs, "s", TSV{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Error("striped sink round trip corrupted edges")
	}
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

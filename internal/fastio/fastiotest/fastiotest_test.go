package fastiotest_test

import (
	"io"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/fastio/fastiotest"
)

var (
	_ fastio.EdgeSource = (*fastiotest.ListSource)(nil)
	_ fastio.EdgeSink   = (*fastiotest.ListSink)(nil)
)

func TestListSinkSource(t *testing.T) {
	in := edge.NewList(0)
	for i := range uint64(5) {
		in.Append(i, 10*i)
	}
	l := edge.NewList(0)
	sink := fastiotest.NewListSink(l)
	if err := fastio.WriteEdges(sink, in, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 || l.U[0] != 1 || l.V[2] != 30 {
		t.Fatalf("sink holds %v %v, want edges 1..3", l.U, l.V)
	}
	src := fastiotest.NewListSource(in)
	got := edge.NewList(0)
	for _, want := range []int{2, 2, 1} {
		if n, err := fastio.ReadEdges(src, got, 2); n != want || err != nil {
			t.Fatalf("ReadEdges = %d, %v; want %d, nil", n, err, want)
		}
	}
	for range 2 {
		if n, err := fastio.ReadEdges(src, got, 2); n != 0 || err != io.EOF {
			t.Fatalf("ReadEdges at the end = %d, %v; want 0, io.EOF", n, err)
		}
	}
	if !got.Equal(in) {
		t.Error("ListSource reordered or lost edges")
	}
}

package fastio_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/kronecker"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

// The tsv codec benchmarks drive the bulk calls the pipeline drives
// (fastio.WriteEdges over a whole list, the tsv reader's ReadEdges in
// 16 Ki-edge batches into a list that already has room) and report ns/edge.  The
// "s16" input is kernel 0's scale-16 Kronecker list (labels of at most 5
// digits); "8digit" has the widest labels the word-at-a-time paths take
// (scale 26), "20digit" the widest records.

type benchInput struct {
	name string
	l    *edge.List
}

var benchLists = sync.OnceValue(func() []benchInput {
	s16, err := kronecker.Generate(kronecker.New(16, 1))
	if err != nil {
		panic(err)
	}
	g := xrand.New(1)
	uniform := func(lo, hi uint64) *edge.List {
		l := edge.NewList(1 << 16)
		for range 1 << 16 {
			l.Append(lo+g.Next()%(hi-lo), lo+g.Next()%(hi-lo))
		}
		return l
	}
	return []benchInput{{"s16", s16}, {"8digit", uniform(1e7, 1e8)}, {"20digit", uniform(1e19, math.MaxUint64)}}
})

func reportNsPerEdge(b *testing.B, edges int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
}

func BenchmarkTSVWrite(b *testing.B) {
	for _, in := range benchLists() {
		b.Run(in.name, func(b *testing.B) {
			l := in.l
			b.ReportAllocs()
			for range b.N {
				w := fastio.TSV{}.NewWriter(io.Discard)
				if err := fastio.WriteEdges(w, l, 0, l.Len()); err != nil {
					b.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			reportNsPerEdge(b, l.Len())
		})
	}
}

func BenchmarkTSVRead(b *testing.B) {
	for _, in := range benchLists() {
		b.Run(in.name, func(b *testing.B) {
			var buf bytes.Buffer
			w := fastio.TSV{}.NewWriter(&buf)
			if err := fastio.WriteEdges(w, in.l, 0, in.l.Len()); err != nil {
				b.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			dst := edge.NewList(in.l.Len())
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				dst.Reset()
				r := fastio.TSV{}.NewReader(bytes.NewReader(data))
				for {
					if _, err := fastio.ReadEdges(r, dst, 16<<10); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
			if !dst.Equal(in.l) {
				b.Fatal("decoded list differs from the encoded one")
			}
			reportNsPerEdge(b, in.l.Len())
		})
	}
}

// BenchmarkStripedWide times the whole-list passes the pipeline makes —
// WriteStripedWide into a vfs.Mem stripe and ReadStripedInto a list with
// room — on the s16 list at one worker and at GOMAXPROCS.
func BenchmarkStripedWide(b *testing.B) {
	l := benchLists()[0].l
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("write/w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := fastio.WriteStripedWide(vfs.NewMem(), "k0", fastio.TSV{}, 1, l, workers); err != nil {
					b.Fatal(err)
				}
			}
			reportNsPerEdge(b, l.Len())
		})
		b.Run(fmt.Sprintf("read/w%d", workers), func(b *testing.B) {
			fs := vfs.NewMem()
			if err := fastio.WriteStripedWide(fs, "k0", fastio.TSV{}, 1, l, 1); err != nil {
				b.Fatal(err)
			}
			dst := edge.NewList(l.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := fastio.ReadStripedInto(fs, "k0", fastio.TSV{}, dst, workers); err != nil {
					b.Fatal(err)
				}
			}
			if !dst.Equal(l) {
				b.Fatal("decoded list differs from the encoded one")
			}
			reportNsPerEdge(b, l.Len())
		})
	}
}

package xsort

import (
	"sort"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/fastio/fastiotest"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

func TestMergeSourcesByU(t *testing.T) {
	mk := func(pairs ...[2]uint64) *edge.List {
		l := edge.NewList(len(pairs))
		for _, p := range pairs {
			l.Append(p[0], p[1])
		}
		return l
	}
	a := mk([2]uint64{1, 0}, [2]uint64{5, 0}, [2]uint64{9, 0})
	b := mk([2]uint64{2, 0}, [2]uint64{3, 0})
	c := mk() // empty source participates harmlessly
	out := edge.NewList(0)
	err := MergeSources([]fastio.EdgeSource{
		fastiotest.NewListSource(a), fastiotest.NewListSource(b), fastiotest.NewListSource(c),
	}, fastiotest.NewListSink(out), false)
	if err != nil {
		t.Fatal(err)
	}
	wantU := []uint64{1, 2, 3, 5, 9}
	if out.Len() != len(wantU) {
		t.Fatalf("merged %d edges", out.Len())
	}
	for i, w := range wantU {
		if out.U[i] != w {
			t.Fatalf("merged[%d].U = %d, want %d", i, out.U[i], w)
		}
	}
}

func TestMergeSourcesStableTieBreak(t *testing.T) {
	// Equal keys: source 0's edges must precede source 1's.
	a := edge.NewList(2)
	a.Append(7, 100)
	a.Append(7, 101)
	b := edge.NewList(1)
	b.Append(7, 200)
	out := edge.NewList(0)
	err := MergeSources([]fastio.EdgeSource{fastiotest.NewListSource(a), fastiotest.NewListSource(b)},
		fastiotest.NewListSink(out), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.V[0] != 100 || out.V[1] != 101 || out.V[2] != 200 {
		t.Errorf("tie-break order: %v", out.V)
	}
}

func TestMergeSourcesByUV(t *testing.T) {
	a := edge.NewList(2)
	a.Append(1, 9)
	a.Append(2, 1)
	b := edge.NewList(1)
	b.Append(1, 3)
	out := edge.NewList(0)
	err := MergeSources([]fastio.EdgeSource{fastiotest.NewListSource(a), fastiotest.NewListSource(b)},
		fastiotest.NewListSink(out), true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsSortedByUV() {
		t.Errorf("byUV merge produced %v %v", out.U, out.V)
	}
}

func TestMergeSourcesManyRandom(t *testing.T) {
	full := randomList(31, 3000, 1<<20)
	// Split into 7 chunks, sort each, merge, compare with direct sort.
	const k = 7
	var sources []fastio.EdgeSource
	for i := 0; i < k; i++ {
		chunk := full.Slice(i*full.Len()/k, (i+1)*full.Len()/k).Clone()
		RadixByU(chunk)
		sources = append(sources, fastiotest.NewListSource(chunk))
	}
	out := edge.NewList(0)
	if err := MergeSources(sources, fastiotest.NewListSink(out), false); err != nil {
		t.Fatal(err)
	}
	if !out.IsSortedByU() || !out.SameMultiset(full) {
		t.Error("k-way merge incorrect")
	}
}

func TestMergeSourcesNoSources(t *testing.T) {
	out := edge.NewList(0)
	if err := MergeSources(nil, fastiotest.NewListSink(out), false); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Error("empty merge produced edges")
	}
}

// FuzzMergeSources holds both merges to a stable sort of the runs'
// concatenation.  The fuzzer picks k ∈ [0, 17] runs, each sorted, empty or
// of a length around the merge cursors' batch or the read-ahead batch
// (n−1, n, n+1); keys from a domain of 1 (all equal), 3 or 2⁴⁰ values; and
// byUV on or off.  MergeSources reads the runs from list sources, and again
// from spilled run files through OpenRuns's read-ahead.
func FuzzMergeSources(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), false)
	f.Add(uint64(2), uint8(17), uint8(1), true)
	f.Add(uint64(3), uint8(0), uint8(2), false)
	f.Add(uint64(4), uint8(1), uint8(4), true)
	f.Add(uint64(5), uint8(9), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed uint64, k, shape uint8, uv bool) {
		g := xrand.New(seed)
		lengths := []int{0, 1, 7, mergeBatch - 1, mergeBatch, mergeBatch + 1,
			fastio.PackedBlockEdges - 1, fastio.PackedBlockEdges, fastio.PackedBlockEdges + 1}
		keys := []uint64{1, 3, 1 << 40}[shape%3]
		codec := []fastio.Codec{fastio.Binary{}, fastio.Packed{}}[shape/3%2]
		runs := make([]*edge.List, k%18)
		want := edge.NewList(0)
		for i := range runs {
			n := lengths[g.Uint64n(uint64(len(lengths)))]
			r := edge.NewList(n)
			for range n {
				// By u alone, v is what tells equal keys apart.
				v := g.Uint64n(1 << 40)
				if uv {
					v = g.Uint64n(keys)
				}
				r.Append(g.Uint64n(keys), v)
			}
			RadixInto(r, uv, nil)
			runs[i] = r
			want.AppendList(r)
		}
		if uv {
			sort.Stable(byUV{want})
		} else {
			ByUStable(want)
		}

		got := edge.NewList(0)
		MergeLists(runs, got, uv)
		if !got.Equal(want) {
			t.Fatal("MergeLists is not a stable sort of its runs")
		}

		sources := make([]fastio.EdgeSource, len(runs))
		for i, r := range runs {
			sources[i] = fastiotest.NewListSource(r)
		}
		got.Reset()
		if err := MergeSources(sources, fastiotest.NewListSink(got), uv); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatal("MergeSources over lists is not a stable sort of its runs")
		}

		fs := vfs.NewMem()
		names := make([]string, len(runs))
		for i, r := range runs {
			names[i] = fastio.StripeName("run", codec, i)
			if err := writeRun(fs, names[i], codec, r); err != nil {
				t.Fatal(err)
			}
		}
		files, closeAll := OpenRuns(fs, codec, names)
		defer closeAll()
		got.Reset()
		if err := MergeSources(files, fastiotest.NewListSink(got), uv); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("MergeSources over %s runs is not a stable sort of its runs", codec.Name())
		}
	})
}

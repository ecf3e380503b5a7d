package xsort

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/fastio/fastiotest"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

func randomList(seed uint64, n int, maxV uint64) *edge.List {
	g := xrand.New(seed)
	l := edge.NewList(n)
	for i := 0; i < n; i++ {
		l.Append(g.Uint64n(maxV), g.Uint64n(maxV))
	}
	return l
}

// sortAt is Sort at a fixed width, or at a multiple k of the list's
// length when width is negative (-k).
func sortAt(byUV bool, width int) func(*edge.List) {
	return func(l *edge.List) {
		w := width
		if w < 0 {
			w = -w * l.Len()
		}
		Sort(l, byUV, w)
	}
}

// sorters under test, all sorting by U.  ParallelK and SortK are Sort K
// wide, SortM and Sort2M at one and two workers per edge.
var byUSorters = map[string]func(*edge.List){
	"ByU":       ByU,
	"ByUStable": ByUStable,
	"RadixByU":  RadixByU,
	"Parallel1": sortAt(false, 1),
	"Parallel4": sortAt(false, 4),
	"Parallel7": sortAt(false, 7),
	"Sort2":     sortAt(false, 2),
	"Sort3":     sortAt(false, 3),
	"SortM":     sortAt(false, -1),
	"Sort2M":    sortAt(false, -2),
}

// sorters under test, all sorting by (U, V).
var byUVSorters = map[string]func(*edge.List){
	"ByUV":      ByUV,
	"RadixByUV": func(l *edge.List) { RadixInto(l, true, nil) },
	"Sort1":     sortAt(true, 1),
	"Sort2":     sortAt(true, 2),
	"Sort3":     sortAt(true, 3),
	"Sort7":     sortAt(true, 7),
	"SortM":     sortAt(true, -1),
	"Sort2M":    sortAt(true, -2),
}

func TestSortersByU(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(byUSorters)) {
		sortFn := byUSorters[name]
		t.Run(name, func(t *testing.T) {
			l := randomList(1, 2000, 1<<16)
			orig := l.Clone()
			sortFn(l)
			if !l.IsSortedByU() {
				t.Fatal("output not sorted by U")
			}
			if !l.SameMultiset(orig) {
				t.Fatal("sort changed the edge multiset")
			}
		})
	}
}

func TestSortersEdgeCases(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(byUSorters)) {
		sortFn := byUSorters[name]
		t.Run(name, func(t *testing.T) {
			empty := edge.NewList(0)
			sortFn(empty)
			if empty.Len() != 0 {
				t.Error("empty list mangled")
			}
			single := edge.NewList(1)
			single.Append(5, 6)
			sortFn(single)
			if u, v := single.At(0); u != 5 || v != 6 {
				t.Error("single-element list mangled")
			}
			same := edge.NewList(4)
			for i := 0; i < 4; i++ {
				same.Append(7, uint64(i))
			}
			sortFn(same)
			if !same.IsSortedByU() || same.Len() != 4 {
				t.Error("all-equal-keys list mangled")
			}
		})
	}
}

func TestSortPropertyQuick(t *testing.T) {
	err := quick.Check(func(seed uint64, size uint16) bool {
		n := int(size%512) + 1
		l := randomList(seed, n, 1<<30)
		orig := l.Clone()
		RadixByU(l)
		return l.IsSortedByU() && l.SameMultiset(orig)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestRadixMatchesStdSort(t *testing.T) {
	// Differential: radix (stable) must equal stable std sort exactly.
	a := randomList(3, 3000, 1<<20)
	b := a.Clone()
	RadixByU(a)
	ByUStable(b)
	if !a.Equal(b) {
		t.Error("RadixByU differs from stable comparison sort")
	}
}

// TestRadixIntoAuxiliaryLists: whatever auxiliary list the caller lends —
// none, an empty or short one (replaced), one of the right capacity but
// zero length, a longer one full of other edges — the sorted list is the
// stable comparison sort produces, and the list returned has room for the
// edges, is not l, and is the lent one whenever that had the room.
func TestRadixIntoAuxiliaryLists(t *testing.T) {
	for _, byUV := range []bool{false, true} {
		orig := randomList(21, 5000, 1<<18) // three key bytes: an odd pass count copies back
		want := orig.Clone()
		if byUV {
			ByUV(want)
		} else {
			ByUStable(want)
		}
		for name, aux := range map[string]*edge.List{
			"nil": nil, "empty": edge.NewList(0), "short": randomList(22, 100, 9),
			"exact, zero length": edge.NewList(orig.Len()), "long": randomList(23, 7000, 9),
		} {
			l := orig.Clone()
			got := RadixInto(l, byUV, aux)
			if !l.Equal(want) {
				t.Errorf("byUV=%v, %s aux: sorted list differs", byUV, name)
			}
			if got == nil || got == l || cap(got.U) < l.Len() || cap(got.V) < l.Len() {
				t.Errorf("byUV=%v, %s aux: returned list cannot serve as an auxiliary again", byUV, name)
			}
			if aux != nil && cap(aux.U) >= l.Len() && got != aux {
				t.Errorf("byUV=%v, %s aux: a list with room was replaced", byUV, name)
			}
		}
	}
}

func TestRadixStability(t *testing.T) {
	// Tag V with original index; equal-U edges must keep relative order.
	orig := edge.NewList(100)
	g := xrand.New(4)
	for i := 0; i < 100; i++ {
		orig.Append(g.Uint64n(5), uint64(i))
	}
	l := orig.Clone()
	RadixByU(l)
	for i := 1; i < l.Len(); i++ {
		if l.U[i] == l.U[i-1] && l.V[i] < l.V[i-1] {
			t.Fatalf("stability violated at %d: U=%d V=%d after V=%d", i, l.U[i], l.V[i], l.V[i-1])
		}
	}
	// Sort at every width is RadixInto bit for bit, by U and by (U, V),
	// on the tagged list and on one whose V ties too.
	tied := randomList(24, 1000, 6)
	for _, in := range []*edge.List{orig, tied} {
		for _, byUV := range []bool{false, true} {
			want := in.Clone()
			RadixInto(want, byUV, nil)
			for _, w := range []int{-1, 0, 1, 2, 3, 5, 7, 8, 64, in.Len() - 1, in.Len(), 2 * in.Len()} {
				got := in.Clone()
				Sort(got, byUV, w)
				if !got.Equal(want) {
					t.Fatalf("m=%d byUV=%v: Sort %d wide differs from RadixInto", in.Len(), byUV, w)
				}
			}
		}
	}
}

func TestByUVOrders(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(byUVSorters)) {
		s := byUVSorters[name]
		t.Run(name, func(t *testing.T) {
			l := randomList(5, 1500, 64) // small range forces many U ties
			orig := l.Clone()
			s(l)
			if !l.IsSortedByUV() {
				t.Fatal("not sorted by (U,V)")
			}
			if !l.SameMultiset(orig) {
				t.Fatal("multiset changed")
			}
		})
	}
}

func TestRadixLargeKeys(t *testing.T) {
	// Keys needing all 8 bytes.
	l := edge.NewList(3)
	l.Append(1<<63, 1)
	l.Append(1, 2)
	l.Append(1<<40, 3)
	RadixByU(l)
	if !l.IsSortedByU() {
		t.Errorf("large-key sort failed: %v", l.U)
	}
}

func TestSignificantBytes(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 255: 1, 256: 2, 65535: 2, 65536: 3, 1 << 62: 8}
	for in, want := range cases {
		if got := significantBytes(in); got != want {
			t.Errorf("significantBytes(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestExternalSingleRun(t *testing.T) {
	l := randomList(6, 500, 1<<20)
	out := edge.NewList(0)
	stats, err := External(fastiotest.NewListSource(l), fastiotest.NewListSink(out), ExternalConfig{
		FS:       vfs.NewMem(),
		RunEdges: 10000, // everything fits in one run
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Edges != 500 || stats.Runs != 1 {
		t.Errorf("edges=%d runs=%d, want 500, 1", stats.Edges, stats.Runs)
	}
	if stats.Spill != (vfs.IOStats{}) {
		t.Errorf("single-run fast path recorded spill traffic: %+v", stats.Spill)
	}
	if !out.IsSortedByU() || !out.SameMultiset(l) {
		t.Error("single-run external sort incorrect")
	}
}

func TestExternalMultiRun(t *testing.T) {
	l := randomList(7, 5000, 1<<20)
	fs := vfs.NewMem()
	out := edge.NewList(0)
	stats, err := External(fastiotest.NewListSource(l), fastiotest.NewListSink(out), ExternalConfig{
		FS:        fs,
		RunEdges:  512, // force ~10 spill runs
		TmpPrefix: "tmp/run",
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Edges != 5000 {
		t.Errorf("edges = %d", stats.Edges)
	}
	if stats.Runs < 9 {
		t.Errorf("runs = %d, want ~10", stats.Runs)
	}
	if stats.Codec != "bin" {
		t.Errorf("default spill codec = %q, want bin", stats.Codec)
	}
	// Fixed-width spill accounting: every edge is written once and read
	// back once at exactly 16 bytes.
	if stats.Spill.BytesWritten != 16*5000 || stats.Spill.BytesRead != 16*5000 {
		t.Errorf("spill bytes = %+v, want 80000 both ways", stats.Spill)
	}
	if !out.IsSortedByU() {
		t.Error("multi-run output not sorted")
	}
	if !out.SameMultiset(l) {
		t.Error("multi-run output lost edges")
	}
	// Temp files must be cleaned up.
	names, _ := fs.List()
	if len(names) != 0 {
		t.Errorf("leftover temp files: %v", names)
	}
}

// failingSink errors after accepting budget edges — a downstream
// destination failure during the merge phase.
type failingSink struct {
	budget int
}

func (s *failingSink) WriteEdges(l *edge.List, lo, hi int) error {
	if s.budget < hi-lo {
		return vfs.ErrInjected
	}
	s.budget -= hi - lo
	return nil
}

func (s *failingSink) Flush() error { return nil }

func TestExternalFailureLeavesNoRunFiles(t *testing.T) {
	const edges = 5000
	l := randomList(11, edges, 1<<20)
	// All spilled runs together are 16 bytes per edge.
	writeBytes := int64(16 * edges)
	cases := map[string]struct {
		budget int64 // Faulty I/O budget
		sink   fastio.EdgeSink
	}{
		"spill-fails":      {budget: writeBytes / 2, sink: fastiotest.NewListSink(edge.NewList(0))},
		"merge-read-fails": {budget: writeBytes + 8, sink: fastiotest.NewListSink(edge.NewList(0))},
		"merge-sink-fails": {budget: 1 << 40, sink: &failingSink{budget: edges / 2}},
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		tc := cases[name]
		t.Run(name, func(t *testing.T) {
			mem := vfs.NewMem()
			_, err := External(fastiotest.NewListSource(l), tc.sink, ExternalConfig{
				FS:        vfs.NewFaulty(mem, tc.budget),
				RunEdges:  512,
				TmpPrefix: "tmp/extsort",
			})
			if err == nil {
				t.Fatal("injected failure not surfaced")
			}
			// The documented contract: run files are deleted on completion,
			// success and failure alike.
			names, lerr := mem.List()
			if lerr != nil {
				t.Fatal(lerr)
			}
			if len(names) != 0 {
				t.Errorf("failed sort left run files behind: %v", names)
			}
		})
	}
}

// tearFS flips the continuation bit of the named file's last byte as the
// file is opened, so its last varint runs past the end of its block.
type tearFS struct {
	vfs.FS
	name string
}

func (f *tearFS) Open(name string) (io.ReadCloser, error) {
	r, err := f.FS.Open(name)
	if err != nil || name != f.name {
		return r, err
	}
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		return nil, err
	}
	data[len(data)-1] ^= 0x80
	return io.NopCloser(bytes.NewReader(data)), nil
}

// TestExternalCorruptRunNamed: a spilled run that no longer decodes fails
// the merge with an error that names the run's file.
func TestExternalCorruptRunNamed(t *testing.T) {
	const bad = "tmp/run-0002.packed"
	mem := vfs.NewMem()
	_, err := External(fastiotest.NewListSource(randomList(14, 5000, 1<<20)), fastiotest.NewListSink(edge.NewList(0)), ExternalConfig{
		FS: &tearFS{FS: mem, name: bad}, RunEdges: 1000, TmpPrefix: "tmp/run", Codec: fastio.Packed{},
	})
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("merge over a corrupt run: err = %v, want it to name %s", err, bad)
	}
	if names, _ := mem.List(); len(names) != 0 {
		t.Errorf("failed merge left %v", names)
	}
}

func TestSpillRunAndOpenRunsRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	a := randomList(12, 300, 1<<10)
	b := randomList(13, 200, 1<<10)
	for i, l := range []*edge.List{a, b} {
		if err := SpillRun(fs, fastio.StripeName("runs", fastio.Binary{}, i), fastio.Binary{}, l, false); err != nil {
			t.Fatal(err)
		}
		if !l.IsSortedByU() {
			t.Fatal("SpillRun did not sort its buffer")
		}
	}
	names := []string{
		fastio.StripeName("runs", fastio.Binary{}, 0),
		fastio.StripeName("runs", fastio.Binary{}, 1),
	}
	sources, closeAll := OpenRuns(fs, fastio.Binary{}, names)
	defer closeAll()
	merged := edge.NewList(0)
	if err := MergeSources(sources, fastiotest.NewListSink(merged), false); err != nil {
		t.Fatal(err)
	}
	want := edge.NewList(0)
	want.AppendList(a)
	want.AppendList(b)
	RadixByU(want)
	if !merged.IsSortedByU() || merged.Len() != want.Len() {
		t.Fatal("merged round trip incorrect")
	}
	if err := RemoveRuns(fs, names); err != nil {
		t.Fatal(err)
	}
	if left, _ := fs.List(); len(left) != 0 {
		t.Fatalf("RemoveRuns left %v", left)
	}
	// Removing already-removed runs is not an error.
	if err := RemoveRuns(fs, names); err != nil {
		t.Fatalf("second RemoveRuns: %v", err)
	}
}

func TestMergeListsStable(t *testing.T) {
	// Three sorted lists with heavy key collisions: ties must resolve by
	// list index, making the merge of stably-sorted slices stable.
	lists := make([]*edge.List, 3)
	for i := range lists {
		lists[i] = edge.NewList(10)
		for j := 0; j < 10; j++ {
			lists[i].Append(uint64(j/2), uint64(i*100+j))
		}
	}
	out := edge.NewList(0)
	MergeLists(lists, out, false)
	if !out.IsSortedByU() {
		t.Fatal("merged output not sorted")
	}
	if out.Len() != 30 {
		t.Fatalf("merged %d edges, want 30", out.Len())
	}
	// Within one key, list 0's edges precede list 1's precede list 2's,
	// and within one list input order survives (V strictly increasing).
	lastV := map[uint64]uint64{} // per source list (V/100), last V seen
	lastList := uint64(0)
	prevU := uint64(0)
	for i := 0; i < out.Len(); i++ {
		u, v := out.At(i)
		src := v / 100
		if u != prevU {
			prevU, lastList = u, 0
			lastV = map[uint64]uint64{}
		}
		if src < lastList {
			t.Fatalf("tie at key %d broken out of list order", u)
		}
		lastList = src
		if prev, ok := lastV[src]; ok && v <= prev {
			t.Fatalf("list %d order not preserved at key %d", src, u)
		}
		lastV[src] = v
	}
	// Degenerate shapes.
	empty := edge.NewList(0)
	MergeLists(nil, empty, false)
	MergeLists([]*edge.List{edge.NewList(0)}, empty, false)
	if empty.Len() != 0 {
		t.Fatal("merging empties produced edges")
	}
}

func TestExternalByUV(t *testing.T) {
	l := randomList(8, 3000, 32)
	out := edge.NewList(0)
	_, err := External(fastiotest.NewListSource(l), fastiotest.NewListSink(out), ExternalConfig{
		FS:       vfs.NewMem(),
		RunEdges: 256,
		ByUV:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsSortedByUV() {
		t.Error("ByUV external sort not lexicographically sorted")
	}
	if !out.SameMultiset(l) {
		t.Error("ByUV external sort lost edges")
	}
}

func TestExternalEmptyInput(t *testing.T) {
	out := edge.NewList(0)
	stats, err := External(fastiotest.NewListSource(edge.NewList(0)), fastiotest.NewListSink(out), ExternalConfig{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Edges != 0 || out.Len() != 0 {
		t.Errorf("empty input: edges=%d out=%d runs=%d", stats.Edges, out.Len(), stats.Runs)
	}
}

// TestExternalHugeRunEdges: a run buffer far past the input reserves only
// what the input fills — RunEdges is a bound, not an allocation.
func TestExternalHugeRunEdges(t *testing.T) {
	l := randomList(25, 100, 1<<10)
	for _, byUV := range []bool{false, true} {
		out := edge.NewList(0)
		stats, err := External(fastiotest.NewListSource(l), fastiotest.NewListSink(out), ExternalConfig{
			FS: vfs.NewMem(), RunEdges: math.MaxInt, ByUV: byUV,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := l.Clone()
		RadixInto(want, byUV, nil)
		if stats.Runs != 1 || !out.Equal(want) {
			t.Errorf("byUV=%v: runs=%d, sorted output equal: %v", byUV, stats.Runs, out.Equal(want))
		}
	}
}

// tagSource streams n edges with keys below 1<<12, each edge's V its
// position in the stream.
type tagSource struct{ i, n int }

func (s *tagSource) ReadEdges(l *edge.List, max int) (int, error) {
	k := min(max, s.n-s.i, 4096)
	if k == 0 {
		return 0, io.EOF
	}
	for range k {
		l.Append(uint64(s.i)*2654435761>>7&(1<<12-1), uint64(s.i))
		s.i++
	}
	return k, nil
}

// stableCheck is a sink that holds nothing: it checks the stream is the
// stable sort by U of a tagSource's edges.
type stableCheck struct {
	n          int
	lastU      uint64
	lastV, sum uint64
}

func (c *stableCheck) WriteEdges(l *edge.List, lo, hi int) error {
	for i := lo; i < hi; i++ {
		u, v := l.At(i)
		if c.n > 0 && (u < c.lastU || u == c.lastU && v <= c.lastV) {
			return fmt.Errorf("edge %d (%d, %d) after (%d, %d)", c.n, u, v, c.lastU, c.lastV)
		}
		c.n, c.lastU, c.lastV, c.sum = c.n+1, u, v, c.sum+v
	}
	return nil
}

func (c *stableCheck) Flush() error { return nil }

// TestExternalGrowsPastDefaultReserve: a run buffer larger than the
// initial reserve grows until it holds RunEdges edges — two runs — and
// the output is the stable sort.
func TestExternalGrowsPastDefaultReserve(t *testing.T) {
	n := DefaultRunEdges + 300
	var check stableCheck
	stats, err := External(&tagSource{n: n}, &check, ExternalConfig{FS: vfs.NewMem(), RunEdges: DefaultRunEdges + 200})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 2 || check.n != n || check.sum != uint64(n)*uint64(n-1)/2 {
		t.Errorf("runs=%d edges=%d tag sum=%d, want 2, %d, %d", stats.Runs, check.n, check.sum, n, uint64(n)*uint64(n-1)/2)
	}
}

func TestExternalNilFS(t *testing.T) {
	_, err := External(fastiotest.NewListSource(edge.NewList(0)), fastiotest.NewListSink(edge.NewList(0)), ExternalConfig{})
	if err == nil {
		t.Error("nil FS accepted")
	}
}

func TestExternalMatchesInMemory(t *testing.T) {
	// Differential: external (stable across runs by construction: run index
	// tiebreak) must equal stable in-memory sort.
	l := randomList(9, 4000, 256)
	mem := l.Clone()
	ByUStable(mem)
	out := edge.NewList(0)
	_, err := External(fastiotest.NewListSource(l), fastiotest.NewListSink(out), ExternalConfig{
		FS:       vfs.NewMem(),
		RunEdges: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(mem) {
		t.Error("external sort is not stable-equivalent to in-memory stable sort")
	}
}

func BenchmarkRadixByU10k(b *testing.B) {
	src := randomList(1, 10000, 1<<22)
	l := src.Clone()
	b.SetBytes(int64(src.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(l.U, src.U)
		copy(l.V, src.V)
		RadixByU(l)
	}
}

func BenchmarkStdByU10k(b *testing.B) {
	src := randomList(1, 10000, 1<<22)
	l := src.Clone()
	b.SetBytes(int64(src.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(l.U, src.U)
		copy(l.V, src.V)
		ByU(l)
	}
}

// Package xsort implements the sorting machinery for kernel 1 of the
// PageRank pipeline benchmark.
//
// Kernel 1 reads the edge files written by kernel 0, sorts the edges by
// start vertex, and writes them back in the same format.  The paper notes
// the kernel "has many similarities to the Sort benchmark" and that the
// algorithm choice depends on scale: an in-memory algorithm when the edge
// vectors fit in RAM, an out-of-core algorithm otherwise.  This package
// provides both regimes:
//
//   - ByU / ByUV: comparison sorts via the standard library (the
//     straightforward implementation, used by the coo variant);
//   - RadixByU / RadixByUV: LSD radix sorts specialized for uint64 vertex
//     labels (the optimized implementation, used by the csr variant);
//   - Merge-based parallel sort (the parallel variant);
//   - External: an out-of-core external merge sort that spills fixed-size
//     sorted runs to a vfs.FS and k-way merges them (the extsort variant).
package xsort

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/vfs"
)

// ---------------------------------------------------------------------------
// In-memory comparison sorts

type byU struct{ *edge.List }

func (s byU) Less(i, j int) bool { return s.U[i] < s.U[j] }

type byUV struct{ *edge.List }

func (s byUV) Less(i, j int) bool {
	return s.U[i] < s.U[j] || (s.U[i] == s.U[j] && s.V[i] < s.V[j])
}

// ByU sorts the edges in place by start vertex using the standard library's
// comparison sort (pattern-defeating quicksort).
func ByU(l *edge.List) { sort.Sort(byU{l}) }

// ByUStable sorts by start vertex preserving the relative order of edges
// with equal start vertices.
func ByUStable(l *edge.List) { sort.Stable(byU{l}) }

// ByUV sorts the edges in place by (start, end) vertex lexicographically —
// the paper's "should the end vertices also be sorted?" option.
func ByUV(l *edge.List) { sort.Sort(byUV{l}) }

// ---------------------------------------------------------------------------
// Radix sort

// significantBytes returns how many low-order bytes of key are needed to
// cover values <= max.
func significantBytes(max uint64) int {
	b := 1
	for max > 0xFF {
		max >>= 8
		b++
	}
	return b
}

// RadixByU sorts the edges by start vertex with an LSD byte-radix sort.
// It is stable and runs in O(passes · M) time with one auxiliary edge list;
// passes is the number of significant bytes in the largest start vertex.
func RadixByU(l *edge.List) { RadixInto(l, false, nil) }

// RadixByUV sorts the edges lexicographically by (U, V): a stable LSD pass
// over V's bytes followed by stable passes over U's bytes.
func RadixByUV(l *edge.List) { RadixInto(l, true, nil) }

// RadixInto is RadixByU — with byUV, RadixByUV — through the auxiliary list
// aux, which it returns: a caller that sorts again, or has another use for a
// list of l's size, keeps it.  A nil or too small aux is replaced.
func RadixInto(l *edge.List, byUV bool, aux *edge.List) *edge.List {
	if byUV {
		aux = radix(l, l.V, aux)
	}
	return radix(l, l.U, aux)
}

// radix performs a stable LSD radix sort of l ordered by the given key
// slice (which must alias l.U or l.V) through scratch, a list with room for
// l's edges — replaced if it is nil or has none — and returns it.
func radix(l *edge.List, keys []uint64, scratch *edge.List) *edge.List {
	m := l.Len()
	if m < 2 {
		return scratch
	}
	var max uint64
	for _, k := range keys {
		if k > max {
			max = k
		}
	}
	passes := significantBytes(max)
	if scratch == nil || cap(scratch.U) < m || cap(scratch.V) < m {
		scratch = edge.Make(m)
	}
	src, dst := l, &edge.List{U: scratch.U[:m], V: scratch.V[:m]}
	srcKeys := keys
	keyIsU := &keys[0] == &l.U[0]
	var count [256]int
	for p := 0; p < passes; p++ {
		shift := uint(8 * p)
		for i := range count {
			count[i] = 0
		}
		for _, k := range srcKeys {
			count[(k>>shift)&0xFF]++
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i := 0; i < m; i++ {
			b := (srcKeys[i] >> shift) & 0xFF
			j := count[b]
			count[b]++
			dst.U[j] = src.U[i]
			dst.V[j] = src.V[i]
		}
		src, dst = dst, src
		if keyIsU {
			srcKeys = src.U
		} else {
			srcKeys = src.V
		}
	}
	if src != l {
		copy(l.U, src.U)
		copy(l.V, src.V)
	}
	return scratch
}

// ---------------------------------------------------------------------------
// Parallel merge sort

// ParallelByU sorts the edges by start vertex using workers goroutines:
// each worker radix-sorts a contiguous chunk, then chunks are merged
// pairwise.  workers <= 0 selects GOMAXPROCS.  The sort is stable.
func ParallelByU(l *edge.List, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := l.Len()
	if workers > m {
		workers = m
	}
	if m < 2 {
		return
	}
	if workers < 2 {
		RadixByU(l)
		return
	}
	// Sort chunks concurrently.
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * m / workers
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		//prlint:allow determinism -- workers radix-sort disjoint slices and join on wg; the merge below fixes the final order
		go func(sub *edge.List) {
			defer wg.Done()
			RadixByU(sub)
		}(l.Slice(lo, hi))
	}
	wg.Wait()
	// Merge pairwise until one run remains.
	runs := make([][2]int, 0, workers)
	for w := 0; w < workers; w++ {
		if bounds[w] != bounds[w+1] {
			runs = append(runs, [2]int{bounds[w], bounds[w+1]})
		}
	}
	buf := edge.Make(m)
	for len(runs) > 1 {
		var next [][2]int
		var mwg sync.WaitGroup
		for i := 0; i+1 < len(runs); i += 2 {
			a, b := runs[i], runs[i+1]
			next = append(next, [2]int{a[0], b[1]})
			mwg.Add(1)
			//prlint:allow determinism -- pairwise merges touch disjoint [a,b) ranges and join on mwg each round
			go func(a, b [2]int) {
				defer mwg.Done()
				mergeRuns(l, buf, a[0], a[1], b[1])
			}(a, b)
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		mwg.Wait()
		runs = next
	}
}

// mergeRuns merges the sorted ranges [lo, mid) and [mid, hi) of l through
// buf, stably by U.
func mergeRuns(l, buf *edge.List, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if l.U[j] < l.U[i] {
			buf.U[k], buf.V[k] = l.U[j], l.V[j]
			j++
		} else {
			buf.U[k], buf.V[k] = l.U[i], l.V[i]
			i++
		}
		k++
	}
	for i < mid {
		buf.U[k], buf.V[k] = l.U[i], l.V[i]
		i++
		k++
	}
	for j < hi {
		buf.U[k], buf.V[k] = l.U[j], l.V[j]
		j++
		k++
	}
	copy(l.U[lo:hi], buf.U[lo:hi])
	copy(l.V[lo:hi], buf.V[lo:hi])
}

// ---------------------------------------------------------------------------
// External merge sort

// ExternalConfig parameterizes the out-of-core sort.
type ExternalConfig struct {
	// FS receives the intermediate run files.
	FS vfs.FS
	// TmpPrefix names the run files; they are deleted on completion,
	// whether the sort succeeds or fails part-way.
	TmpPrefix string
	// RunEdges is the number of edges sorted in memory per run.  It models
	// the available RAM: RunEdges·16 bytes is the sorter's working set.
	RunEdges int
	// ByUV additionally orders equal-U edges by V.
	ByUV bool
	// Codec encodes the spilled run files; nil means fastio.Binary, the
	// fixed-width record with exact 16 B/edge accounting.
	Codec fastio.Codec
}

// DefaultRunEdges sorts 1 Mi edges (16 MiB) per run when unset.
const DefaultRunEdges = 1 << 20

// SpillRun stably sorts buf in place (by U, or by (U, V) when byUV) and
// writes it to fs under name in the given codec.  It is the run-formation
// step of the external sorters, exported because the distributed
// out-of-core kernel 1 forms per-rank runs the same way.  Sorted runs are
// the Packed codec's best case; the fixed-width Binary codec gives exact
// 16 B/edge spill accounting.
func SpillRun(fs vfs.FS, name string, codec fastio.Codec, buf *edge.List, byUV bool) error {
	if byUV {
		RadixByUV(buf)
	} else {
		RadixByU(buf)
	}
	w, err := fs.Create(name)
	if err != nil {
		return err
	}
	sink := codec.NewWriter(w)
	if err := fastio.WriteEdges(sink, buf, 0, buf.Len()); err != nil {
		w.Close()
		return err
	}
	if err := sink.Flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// OpenRuns opens the named run files on fs for merging, returning one
// streaming source per name (in the given order, decoding with the given
// codec) and a close-all function.  On error the already-opened files are
// closed before return.
func OpenRuns(fs vfs.FS, codec fastio.Codec, names []string) ([]fastio.EdgeSource, func(), error) {
	sources := make([]fastio.EdgeSource, len(names))
	closers := make([]io.Closer, 0, len(names))
	closeAll := func() {
		for _, c := range closers {
			c.Close()
		}
	}
	for i, name := range names {
		r, err := fs.Open(name)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		closers = append(closers, r)
		sources[i] = codec.NewReader(r)
	}
	return sources, closeAll, nil
}

// RemoveRuns deletes the named run files, keeping the first failure; files
// that are already gone are not an error (a partially failed spill may not
// have created every name the caller tracked).
func RemoveRuns(fs vfs.FS, names []string) error {
	var first error
	for _, name := range names {
		if err := fs.Remove(name); err != nil && first == nil && !errors.Is(err, os.ErrNotExist) {
			first = err
		}
	}
	return first
}

// ExternalStats reports what an External sort did: how many edges moved,
// how many runs spilled, which codec encoded them, and the encoded byte
// traffic of the spill files — so a cheaper spill codec shows up as
// measured bytes, not an asserted constant.
type ExternalStats struct {
	// Edges is the number of edges sorted.
	Edges int
	// Runs is the number of sorted runs formed (1 for the in-memory fast
	// path, which spills nothing).
	Runs int
	// Codec names the spill codec.
	Codec string
	// Spill counts the run files' encoded bytes: BytesWritten during run
	// formation, BytesRead during the merge.  Both are zero on the
	// single-run fast path.
	Spill vfs.IOStats
}

// External sorts the edge stream src into dst using at most
// cfg.RunEdges·16 bytes of in-memory edge storage, spilling sorted runs to
// cfg.FS in cfg.Codec (Binary by default) and k-way merging them with a
// heap.  Run files are removed before return on success and failure alike,
// so an aborted sort leaves no stripes behind.
func External(src fastio.EdgeSource, dst fastio.EdgeSink, cfg ExternalConfig) (stats ExternalStats, err error) {
	if cfg.FS == nil {
		return stats, fmt.Errorf("xsort: ExternalConfig.FS is nil")
	}
	if cfg.RunEdges <= 0 {
		cfg.RunEdges = DefaultRunEdges
	}
	if cfg.TmpPrefix == "" {
		cfg.TmpPrefix = "xsort-run"
	}
	if cfg.Codec == nil {
		cfg.Codec = fastio.Binary{}
	}
	stats.Codec = cfg.Codec.Name()
	// Meter the spill traffic.  Only the run files flow through the
	// wrapped FS — src and dst belong to the caller — so the stats are
	// exactly the spill bytes.
	meter := vfs.NewMetered(cfg.FS)
	cfg.FS = meter
	defer func() { stats.Spill = meter.Stats() }()

	// Phase 1: produce sorted runs.  Whatever happens below, the spilled
	// stripes are gone when External returns.
	buf := edge.NewList(cfg.RunEdges)
	var runNames []string
	defer func() {
		if rmErr := RemoveRuns(cfg.FS, runNames); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	flushRun := func() error {
		if buf.Len() == 0 {
			return nil
		}
		name := fastio.StripeName(cfg.TmpPrefix, cfg.Codec, len(runNames))
		// Track the name before writing: a failed spill may still have
		// created the file, and the deferred cleanup must catch it.
		runNames = append(runNames, name)
		if err := SpillRun(cfg.FS, name, cfg.Codec, buf, cfg.ByUV); err != nil {
			return err
		}
		buf.Reset()
		return nil
	}
	for {
		n, rerr := fastio.ReadEdges(src, buf, cfg.RunEdges-buf.Len())
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			stats.Runs = len(runNames)
			return stats, rerr
		}
		stats.Edges += n
		if buf.Len() >= cfg.RunEdges {
			if err := flushRun(); err != nil {
				stats.Runs = len(runNames)
				return stats, err
			}
		}
	}

	// Single-run fast path: no spill needed.
	if len(runNames) == 0 {
		if cfg.ByUV {
			RadixByUV(buf)
		} else {
			RadixByU(buf)
		}
		stats.Runs = 1
		if err := fastio.WriteEdges(dst, buf, 0, buf.Len()); err != nil {
			return stats, err
		}
		return stats, dst.Flush()
	}
	if err := flushRun(); err != nil {
		stats.Runs = len(runNames)
		return stats, err
	}
	stats.Runs = len(runNames)

	// Phase 2: k-way merge.
	if err := mergeSpilledRuns(cfg, runNames, dst); err != nil {
		return stats, err
	}
	return stats, nil
}

// mergeEntry is one head-of-run element in the merge heap.
type mergeEntry struct {
	u, v uint64
	run  int // index of the source run, used as a stable tiebreaker
}

type mergeHeap struct {
	items []mergeEntry
	byUV  bool
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.u != b.u {
		return a.u < b.u
	}
	if h.byUV && a.v != b.v {
		return a.v < b.v
	}
	return a.run < b.run
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeEntry)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

func mergeSpilledRuns(cfg ExternalConfig, runNames []string, dst fastio.EdgeSink) error {
	sources, closeAll, err := OpenRuns(cfg.FS, cfg.Codec, runNames)
	if err != nil {
		return err
	}
	defer closeAll()
	return MergeSources(sources, dst, cfg.ByUV)
}

// MergeLists k-way merges already-sorted edge lists, appending the merged
// stream to dst.  Ties break by list index, so merging stably-sorted lists
// in a deterministic order is stable — the per-bucket merge step of the
// distributed out-of-core sort, where each list is one spilled-run segment
// and list order is (source rank, run) order.  It is MergeSources over
// list-backed streams, so the two merges share one heap and one tie rule.
func MergeLists(lists []*edge.List, dst *edge.List, byUV bool) {
	switch len(lists) {
	case 0:
		return
	case 1:
		dst.AppendList(lists[0])
		return
	}
	sources := make([]fastio.EdgeSource, len(lists))
	for i, l := range lists {
		sources[i] = fastio.NewListSource(l)
	}
	if err := MergeSources(sources, fastio.NewListSink(dst), byUV); err != nil {
		// Unreachable: list sources and sinks never fail.
		panic(err)
	}
}

// MergeSources k-way merges already-sorted edge streams into dst,
// preserving the sort order (by U, or by (U, V) when byUV is set).  Ties
// break by source index, so merging stably-sorted sources is stable.
// It is the merge phase of the external sorter, exported because the same
// operation combines per-processor sorted files in distributed kernel-1
// settings.  Sources that are not actually sorted produce merged output
// that is not sorted either; callers own that precondition.  MergeLists is
// the in-memory counterpart for segments already resident as edge lists.
func MergeSources(sources []fastio.EdgeSource, dst fastio.EdgeSink, byUV bool) error {
	h := &mergeHeap{byUV: byUV}
	for i, src := range sources {
		u, v, err := src.ReadEdge()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h.items = append(h.items, mergeEntry{u, v, i})
	}
	heap.Init(h)
	for h.Len() > 0 {
		top := h.items[0]
		if err := dst.WriteEdge(top.u, top.v); err != nil {
			return err
		}
		u, v, err := sources[top.run].ReadEdge()
		if err == io.EOF {
			heap.Pop(h)
			continue
		}
		if err != nil {
			return err
		}
		h.items[0] = mergeEntry{u, v, top.run}
		heap.Fix(h, 0)
	}
	return dst.Flush()
}

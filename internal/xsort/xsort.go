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
//   - Sort: the in-memory kernel 1 of every other variant, LSD radix sorts
//     of contiguous chunks (RadixInto) merged pairwise, at any width;
//   - External: the out-of-core kernel 1, an external merge sort that
//     spills bounded sorted runs to a vfs.FS and k-way merges them
//     through a loser tree.
package xsort

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/vfs"
	"repro/internal/workteam"
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

// RadixInto is RadixByU — with byUV, lexicographically by (U, V): stable
// LSD passes over V's bytes, then over U's — through the auxiliary list
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
// The in-memory kernel-1 sort

// Sort stably sorts the edges by start vertex — with byUV, by (start, end)
// vertex — on workers goroutines: each radix-sorts a contiguous chunk
// through its own slice of one auxiliary list of l's size, then the chunks
// merge pairwise through that list, a tie taking the left chunk's edge.
// The sorts and each round's merges are pieces on one workteam.Ring, and a
// round starts once the one before it is done.  The result is RadixInto's
// bit for bit at every width, and so is the memory: one auxiliary list.
// workers <= 0 selects GOMAXPROCS; 1 is RadixInto.
func Sort(l *edge.List, byUV bool, workers int) {
	m := l.Len()
	if workers = min(workteam.Width(workers), m); workers < 2 {
		RadixInto(l, byUV, nil)
		return
	}
	aux := edge.Make(m)
	// Piece c sorts [lo, hi) when mid == hi, else merges [lo, mid) and
	// [mid, hi): workers sorts, then workers − 1 merges.  With workers <= m
	// no chunk is empty.
	pieces := make([][3]int, 2*workers-1)
	r := workteam.NewRing(workers, workers, func(c int) {
		lo, mid, hi := pieces[c][0], pieces[c][1], pieces[c][2]
		if mid == hi {
			RadixInto(l.Slice(lo, hi), byUV, aux.Slice(lo, hi))
		} else {
			mergeRuns(l, aux, lo, mid, hi, byUV)
		}
	})
	runs := make([][2]int, workers)
	for w := range runs {
		lo, hi := w*m/workers, (w+1)*m/workers
		runs[w] = [2]int{lo, hi}
		pieces[r.Next()] = [3]int{lo, hi, hi}
		r.Put()
	}
	for len(runs) > 1 {
		for r.InFlight() > 0 {
			r.Wait()
		}
		var next [][2]int
		for i := 0; i+1 < len(runs); i += 2 {
			a, b := runs[i], runs[i+1]
			pieces[r.Next()] = [3]int{a[0], a[1], b[1]}
			r.Put()
			next = append(next, [2]int{a[0], b[1]})
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		runs = next
	}
	r.Close()
}

// mergeRuns merges the sorted ranges [lo, mid) and [mid, hi) of l, by U
// or by (U, V), a tie taking the left range's edge.  The merged prefix
// [lo, k) goes through aux; the range left over is the right one, already
// in place, or the left one, which moves up to end at hi.
func mergeRuns(l, aux *edge.List, lo, mid, hi int, byUV bool) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if l.U[j] < l.U[i] || byUV && l.U[j] == l.U[i] && l.V[j] < l.V[i] {
			aux.U[k], aux.V[k] = l.U[j], l.V[j]
			j++
		} else {
			aux.U[k], aux.V[k] = l.U[i], l.V[i]
			i++
		}
		k++
	}
	copy(l.U[k:hi], l.U[i:mid])
	copy(l.V[k:hi], l.V[i:mid])
	copy(l.U[lo:k], aux.U[lo:k])
	copy(l.V[lo:k], aux.V[lo:k])
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
// 16 B/edge spill accounting.  A failure names the run's file.
func SpillRun(fs vfs.FS, name string, codec fastio.Codec, buf *edge.List, byUV bool) error {
	_, err := spillRun(fs, name, codec, buf, byUV, nil)
	return err
}

// spillRun is SpillRun sorting through the auxiliary list aux, which it
// returns for the next run (RadixInto).
func spillRun(fs vfs.FS, name string, codec fastio.Codec, buf *edge.List, byUV bool, aux *edge.List) (*edge.List, error) {
	aux = RadixInto(buf, byUV, aux)
	if err := writeRun(fs, name, codec, buf); err != nil {
		return aux, fmt.Errorf("xsort: %s: %w", name, err)
	}
	return aux, nil
}

func writeRun(fs vfs.FS, name string, codec fastio.Codec, buf *edge.List) error {
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

// OpenRuns returns one streaming source per named run file on fs, in the
// given order and decoding with the given codec, and a function that
// closes them all.  Each run is opened on its first read and decoded ahead
// of the merge (fastio.NewFileSource); a failure names the run's file.
func OpenRuns(fs vfs.FS, codec fastio.Codec, names []string) ([]fastio.EdgeSource, func()) {
	runs := make([]*fastio.StripedSource, len(names))
	sources := make([]fastio.EdgeSource, len(names))
	for i, name := range names {
		runs[i] = fastio.NewFileSource(fs, codec, name)
		sources[i] = runs[i]
	}
	return sources, func() {
		for _, r := range runs {
			r.Close()
		}
	}
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
// cfg.RunEdges·16 bytes of in-memory edge storage (plus each merge
// input's two slots of decoded pieces), spilling sorted runs to cfg.FS in
// cfg.Codec (Binary by default) and k-way merging them with a loser tree
// over batched run readers that decode ahead of it.  Run files are removed before
// return on success and failure alike, so an aborted sort leaves no
// stripes behind.
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
	buf := edge.NewList(min(cfg.RunEdges, DefaultRunEdges))
	var aux *edge.List // the radix sort's, kept from run to run
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
		var err error
		if aux, err = spillRun(cfg.FS, name, cfg.Codec, buf, cfg.ByUV, aux); err != nil {
			return err
		}
		buf.Reset()
		return nil
	}
	for {
		// The buffer grows as it fills, doubling up to RunEdges: it never
		// holds room for more than DefaultRunEdges or twice the edges read.
		if n := buf.Len(); n == cap(buf.U) {
			grown := edge.NewList(n + min(n, cfg.RunEdges-n))
			grown.AppendList(buf)
			buf = grown
		}
		n, rerr := fastio.ReadEdges(src, buf, cap(buf.U)-buf.Len())
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
		RadixInto(buf, cfg.ByUV, nil)
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

func mergeSpilledRuns(cfg ExternalConfig, runNames []string, dst fastio.EdgeSink) error {
	sources, closeAll := OpenRuns(cfg.FS, cfg.Codec, runNames)
	defer closeAll()
	return MergeSources(sources, dst, cfg.ByUV)
}

// MergeLists k-way merges already-sorted edge lists, appending the merged
// stream to dst.  Ties break by list index, so merging stably-sorted lists
// in a deterministic order is stable — the per-bucket merge step of the
// distributed out-of-core sort, where each list is one spilled-run segment
// and list order is (source rank, run) order.  It runs MergeSources's
// loser tree directly over the resident lists, so the two merges share one
// order and one tie rule.
func MergeLists(lists []*edge.List, dst *edge.List, byUV bool) {
	cs := make([]cursor, len(lists))
	total := 0
	for i, l := range lists {
		cs[i] = cursor{u: l.U, v: l.V, i: -1}
		total += l.Len()
	}
	dst.Grow(total)
	if err := merge(cs, byUV, dst, nil); err != nil {
		// Unreachable: resident cursors have no source to fail.
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
// Sources are read, and dst written, mergeBatch edges at a time.
func MergeSources(sources []fastio.EdgeSource, dst fastio.EdgeSink, byUV bool) error {
	cs := make([]cursor, len(sources))
	for i, src := range sources {
		cs[i] = cursor{src: src, i: -1}
	}
	err := merge(cs, byUV, edge.NewList(mergeBatch), func(out *edge.List) error {
		return fastio.WriteEdges(dst, out, 0, out.Len())
	})
	if err != nil {
		return err
	}
	return dst.Flush()
}

// mergeBatch is the edges a merge cursor reads from its source at a time,
// and the merged edges MergeSources hands its sink at a time.  Every run
// holds a window this long, so it is kept to 8 KiB: one call per 512 edges
// is already noise next to the per-edge work.
const mergeBatch = 512

// cursor is one sorted input of a merge: a window of its edges, u[i] and
// v[i] being the head, refilled from src when it runs out.
type cursor struct {
	u, v   []uint64
	i      int
	hu, hv uint64            // the head, cached for the tree's matches
	done   bool              // no edges left
	src    fastio.EdgeSource // nil: the window is the whole input
	buf    edge.List         // the window's storage when src is set
}

// advance moves the head to the next edge, refilling the window from src
// when it runs out; the cursor is done when there is no next edge.
func (c *cursor) advance() error {
	c.i++
	if c.i == len(c.u) {
		c.u, c.v, c.i = nil, nil, 0
		for c.src != nil && len(c.u) == 0 {
			c.buf.Reset()
			if _, err := fastio.ReadEdges(c.src, &c.buf, mergeBatch); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			c.u, c.v = c.buf.U, c.buf.V
		}
		if len(c.u) == 0 {
			c.done = true
			return nil
		}
	}
	c.hu, c.hv = c.u[c.i], c.v[c.i]
	return nil
}

// merge appends the edges of cs to out in (u[, v], cursor index) order
// through a loser tree: node[0] is the cursor whose head goes next, and
// each internal node n ∈ [1, k) holds the loser of the match played there,
// the k cursors being the leaves k…2k−1.  A cursor that advances replays
// only the matches on its own path to the root.  When emit is set it
// receives out each time out holds mergeBatch edges, and once at the end;
// out is reset after each call.
func merge(cs []cursor, byUV bool, out *edge.List, emit func(*edge.List) error) error {
	k := len(cs)
	// less orders two cursors' heads; a done cursor follows every live one.
	less := func(a, b int) bool {
		x, y := &cs[a], &cs[b]
		switch {
		case x.done || y.done:
			return !x.done
		case x.hu != y.hu:
			return x.hu < y.hu
		case byUV && x.hv != y.hv:
			return x.hv < y.hv
		}
		return a < b
	}
	// The first match at each node waits there for the second; its winner
	// plays on up, so every node ends up holding one loser.
	node := make([]int, max(k, 1))
	for n := range node {
		node[n] = -1
	}
	for i := range cs {
		if err := cs[i].advance(); err != nil {
			return err
		}
		w, n := i, (i+k)/2
		for ; n > 0; n /= 2 {
			if node[n] < 0 {
				node[n] = w
				break
			}
			if less(node[n], w) {
				node[n], w = w, node[n]
			}
		}
		if n == 0 {
			node[0] = w
		}
	}
	for k > 0 {
		w := node[0]
		c := &cs[w]
		if c.done {
			break
		}
		out.U = append(out.U, c.hu)
		out.V = append(out.V, c.hv)
		if emit != nil && out.Len() == mergeBatch {
			if err := emit(out); err != nil {
				return err
			}
			out.Reset()
		}
		if err := c.advance(); err != nil {
			return err
		}
		for n := (w + k) / 2; n > 0; n /= 2 {
			if less(node[n], w) {
				node[n], w = w, node[n]
			}
		}
		node[0] = w
	}
	if emit != nil && out.Len() > 0 {
		return emit(out)
	}
	return nil
}

package dist

// Out-of-core distributed sample sort (kernel 1 beyond RAM): the paper's
// §IV requires kernel 1 to switch to an out-of-core algorithm when the
// edge vectors exceed memory, and its §V analysis makes the distributed
// sort the scaling bottleneck.  OpSortExternal combines the two regimes:
//
//   - run formation: each rank scans its contiguous input chunk through a
//     bounded buffer of RunEdges edges, stably radix-sorts each buffer
//     load, and spills it to the vfs.FS in the configured spill codec —
//     fixed-width binary by default (xsort.SpillRun — the same machinery
//     xsort.External uses);
//   - splitter selection: sampling, the gather at rank 0 and the splitter
//     broadcast are byte-for-byte the schedule of the in-memory Sort
//     (sampleChunk / chooseSplitters / destRank, shared helpers);
//   - spilled all-to-all: each rank streams its runs back, splits every
//     run at the splitters — a sorted run splits into sorted, contiguous
//     segments — and routes the segments to their bucket owners.  Only
//     off-rank edges are metered, 16 bytes each, so CommStats equals the
//     in-memory Sort's record for the same input exactly;
//   - bucket merge: each rank k-way merges its received segments, ordered
//     by (source rank, run index), with ties inside the merge breaking by
//     segment order.
//
// The output is bit-for-bit equal to xsort.RadixByU for every p and every
// RunEdges: a segment preserves the input order of its run slice (the run
// sort is stable), segments are merged in (rank, run) order — which is
// global input order — and bucket key ranges are disjoint, so the
// concatenated buckets form the same stable sort the serial radix kernel
// produces.
//
// This file holds the schedule's local steps; sortExternalRank (rank.go)
// is the schedule itself, with storage failures agreed through an
// unmetered control-plane barrier so no rank strands another inside a
// collective.

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

// ExtSortConfig parameterizes the out-of-core distributed sort.
type ExtSortConfig struct {
	// FS receives the spilled run files; nil selects a private in-memory
	// store (useful for tests; a real deployment points this at disk).
	FS vfs.FS
	// RunEdges bounds the per-rank in-memory buffer, modeling each
	// processor's RAM: RunEdges·16 bytes is the run-formation working set.
	// Zero or negative selects xsort.DefaultRunEdges.
	RunEdges int
	// TmpPrefix names the run files; empty selects "tmp/distsort".  Runs
	// are removed on completion, success and failure alike.
	TmpPrefix string
	// Codec encodes the spilled run files; nil means fastio.Binary, the
	// fixed-width record with exact 16 B/edge accounting.  Sorted runs are
	// the Packed codec's best case.  The codec never touches the wire:
	// CommStats always meters 16 bytes per exchanged edge.
	Codec fastio.Codec
}

func (cfg ExtSortConfig) withDefaults() ExtSortConfig {
	if cfg.FS == nil {
		cfg.FS = vfs.NewMem()
	}
	if cfg.RunEdges <= 0 {
		cfg.RunEdges = xsort.DefaultRunEdges
	}
	if cfg.TmpPrefix == "" {
		cfg.TmpPrefix = "tmp/distsort"
	}
	if cfg.Codec == nil {
		cfg.Codec = fastio.Binary{}
	}
	return cfg
}

// ExtSortResult is the outcome of an out-of-core distributed sort.
type ExtSortResult struct {
	// Sorted is the globally sorted edge list, bit-for-bit equal to
	// xsort.RadixByU of the input (and to Sort's output) for every p and
	// every RunEdges.
	Sorted *edge.List
	// Comm records the sample gather, splitter broadcast and segment
	// all-to-all — equal to the in-memory Sort's record for the same
	// input, because splitters and chunk bounds are identical and spilling
	// moves no extra bytes over the wire.
	Comm CommStats
	// RunsPerRank is the number of sorted runs each rank spilled,
	// ceil(chunk/RunEdges) per rank.
	RunsPerRank []int
	// Spill is the storage traffic of the run spill and read-back, the
	// I/O volume perfmodel.ParallelKernel1's out-of-core term prices.
	// With the default Binary spill codec BytesWritten is exactly
	// 16·edges; Packed runs measure smaller.
	Spill vfs.IOStats
	// SpillCodec names the codec that encoded the run files.
	SpillCodec string
	// Wire is the measured socket traffic (ExecSocket only, else nil).
	Wire *WireStats
}

// extRunName names rank r's run file number run under prefix.
func extRunName(prefix string, codec fastio.Codec, rank, run int) string {
	return fmt.Sprintf("%s/r%03d-run%05d.%s", prefix, rank, run, codec.Name())
}

// extSpillRuns forms one rank's sorted runs from the chunk [lo, hi) of l:
// slices of at most runEdges edges, each stably radix-sorted in a bounded
// buffer and spilled to fs — the run-formation step.  The input list is
// never mutated.  The returned names include any file a failed spill may
// have partially created, so RemoveRuns over them restores the FS.
func extSpillRuns(fs vfs.FS, prefix string, codec fastio.Codec, l *edge.List, rank, lo, hi, runEdges int) ([]string, error) {
	var names []string
	n := runEdges
	if hi-lo < n {
		n = hi - lo
	}
	buf := edge.NewList(n)
	for start := lo; start < hi; start += runEdges {
		end := start + runEdges
		if end > hi {
			end = hi
		}
		buf.Reset()
		buf.AppendList(l.Slice(start, end))
		name := extRunName(prefix, codec, rank, len(names))
		names = append(names, name)
		if err := xsort.SpillRun(fs, name, codec, buf, false); err != nil {
			return names, err
		}
	}
	return names, nil
}

// extPartitionRun streams one spilled run back from fs and splits it at
// the splitters into per-destination segments.  The run is sorted, so each
// segment is a sorted, contiguous piece of it — the unit the destination's
// k-way merge consumes.
func extPartitionRun(fs vfs.FS, name string, codec fastio.Codec, splitters []uint64, p int) ([]*edge.List, error) {
	const chunk = 8192 // edges per bulk read
	r, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	src := codec.NewReader(r)
	parts := make([]*edge.List, p)
	for d := range parts {
		parts[d] = edge.NewList(0)
	}
	buf := edge.NewList(0)
	for {
		buf.Reset()
		if _, rerr := fastio.ReadEdges(src, buf, chunk); rerr != nil {
			if rerr == io.EOF {
				return parts, nil
			}
			return nil, rerr
		}
		for i := 0; i < buf.Len(); i++ {
			parts[destRank(splitters, buf.U[i])].Append(buf.U[i], buf.V[i])
		}
	}
}

package main

// The traced run.  Spans inside the program are a later change; until
// then the per-layer numbers come from an outside-in replay: the
// benchmark calls, in the order the workload's variant calls them, the
// same public functions of each layer, with a span around each call.
// The replay must end in the rank vector the program produced, bit for
// bit, and its kernel spans are set against the program's own kernel
// seconds (trace.*_replay_gap_pct) so that a replay which has drifted
// from what the variant does is visible.  Where the variant streams one
// layer into another and no call boundary separates them (extsort), a
// probe times the layer's public function on its own, under a "probe"
// root that is kept apart from the replay.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

// minReplays is the fewest program-run-and-replay pairs of a traced run.
const minReplays = 3

// replayOut is what one replay repetition produced besides its spans.
type replayOut struct {
	rank        []float64
	matrix      *sparse.CSR
	io          vfs.IOStats
	k0Bytes     int64 // encoded size of kernel 0's edge files
	buildAllocs uint64
	ext         *xsort.ExternalStats
	dist        *dist.Result
	distWall    float64
}

func measureTraced(ctx context.Context, w workload, p params, r *report) error {
	s, err := w.setup(ctx, p.seed, p.tmp)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer s.close()
	got := metricSet{}

	// A warm workload's replay starts where the cache hit starts: at
	// the built matrix.  The Service does not hand its copy out, so
	// build the (canonical) matrix once, outside any span.
	var cached *sparse.CSR
	if w.Warm {
		if cached, err = buildMatrix(w, s.seed); err != nil {
			return err
		}
	}

	// One untraced run of the program, then one replay of it, and so on
	// in turn: the host's speed shifts over minutes, and the replay's
	// spans are set against the program's own timings.
	var before core.ServiceStats
	if w.Warm {
		before = s.svc.Stats()
	}
	var prog programTimes
	rec := newRecorder()
	start := time.Now()
	for i := 0; i < minReplays || time.Since(start).Seconds() < p.seconds; i++ {
		rp, err := s.timedRep(ctx)
		if r.op(err) {
			prog.add(rp, w, got)
		} else if r.giveUp(ctx) {
			break
		}
		runtime.GC()
		out, err := s.replay(ctx, rec, cached)
		if err == nil {
			err = s.checkReplay(out)
		}
		if err != nil {
			err = fmt.Errorf("replay: %w", err)
		}
		if !r.op(err) {
			if r.giveUp(ctx) {
				break
			}
			continue
		}
		s.counts(out, got)
		if err := s.probe(rec, out); err != nil {
			return fmt.Errorf("%s: probe: %w", w.Name, err)
		}
	}
	pred := perfmodel.All(perfmodel.PaperNode(), perfmodel.Workload{Scale: w.Scale})
	for k, d := range kernelRates {
		if rate := median(got[d.Name]); rate > 0 {
			got.add(fmt.Sprintf("perfmodel.k%d_pred_ratio", k), rate/pred[k].EdgesPerSecond)
		}
	}
	if w.Warm {
		// Over the timed runs only: set-up's fill is the one miss.
		st := s.svc.Stats()
		hits, misses := st.CacheMatrix.Hits-before.CacheMatrix.Hits, st.CacheMatrix.Misses-before.CacheMatrix.Misses
		if hits+misses > 0 {
			got.add("serve.hit_ratio", float64(hits)/float64(hits+misses))
		}
		got.add("serve.resident_mb", float64(st.CacheBytes)/1e6)
	}
	r.Spans, r.Self = rec.spans, selfSeconds(rec.spans)

	// The host probe comes last: its arrays are large, and a heap that
	// has held them serves later allocations from pages already faulted
	// in, which would make whatever ran after it look faster.
	n, nnz := int64(w.n()), int64(s.refNNZ)
	host := probeHost(12*nnz+8*(n+1)+24*n, p.triadCap)
	r.Host = &host
	got.add("host.nproc", float64(host.NProc))
	got.add("host.gomaxprocs", float64(host.GOMAXPROCS))
	got.add("host.llc_mb", float64(host.LLCBytes)/1e6)
	got.add("host.triad_gbps", host.Triad)
	got.add("host.triad_mb", float64(host.TriadBytes)/1e6)
	got.add("host.triad_large_gbps", host.TriadLarge)
	got.add("host.triad_large_mb", float64(host.TriadLargeBytes)/1e6)
	if host.K3CacheResident {
		r.Notes = append(r.Notes, "the kernel-3 working set fits this host's last-level cache: host.triad_gbps and the kernel-3 rate are cache rates, not DRAM bandwidth")
	}
	r.Notes = append(r.Notes,
		"every bytes-moved figure (host.triad_*, pagerank.bytes_per_edge_computed, pagerank.bw_fraction) is computed from array sizes, not measured",
		"perfmodel.*_pred_ratio divides by perfmodel.PaperNode, the paper's Xeon, not this host")

	spanMetrics(rec.spans, w, prog, got)
	if it := median(got["pagerank.iter_s"]); it > 0 {
		bytesPerIter := float64(20*nnz + 8*(n+1) + 32*n)
		got.add("pagerank.bytes_per_edge_computed", bytesPerIter/float64(w.m()))
		if host.Triad > 0 {
			got.add("pagerank.bw_fraction", bytesPerIter/it/1e9/host.Triad)
		}
	}
	r.Metrics = summaries(perLayer, got)
	return nil
}

// programTimes are the program's own timings over the untraced runs of
// a traced run, which the replay's spans are set against.
type programTimes struct {
	walls     []float64
	kernelSec [4][]float64
}

// add records what the program reported about one untraced run: its
// kernel seconds and rates, kernel 2's allocation count, and the time
// the run call spent outside kernels — in the Service (a throwaway one
// under core.RunOnce) and the pipeline runner.
func (t *programTimes) add(rp rep, w workload, got metricSet) {
	t.walls = append(t.walls, rp.wall)
	rp.addKernelRates(got)
	for k, kr := range rp.kernels {
		if kr != nil {
			t.kernelSec[k] = append(t.kernelSec[k], kr.Seconds)
		}
	}
	got.add("serve.run_overhead_s", rp.wall-rp.kernelSeconds())
	if !w.Warm {
		got.add("pipeline.k2_allocs", float64(rp.kernels[2].Allocs))
	}
}

// spanMetrics derives the per-layer timings from the spans: for each
// layer metric the span that measures it, looked up under the replay
// first and, where the replay cannot separate it, under the probes.
func spanMetrics(sp []span, w workload, prog programTimes, got metricSet) {
	layer := func(metric, name string, f func(float64, int64, int64) float64) {
		v := perRep(sp, "replay", name, f)
		if len(v) == 0 {
			v = perRep(sp, "probe", name, f)
		}
		got.add(metric, v...)
	}
	layer("kronecker.ns_per_edge", "kronecker.Generate", nsPerEdge)
	layer("kronecker.ns_per_edge", "kronecker.GenerateTo", nsPerEdge)
	layer("fastio.encode_ns_per_edge", "fastio.WriteStriped", nsPerEdge)
	layer("fastio.decode_ns_per_edge", "fastio.ReadStriped", nsPerEdge)
	layer("vfs.write_mbps", "vfs.Create+Write+Close", func(sec float64, _, bytes int64) float64 { return float64(bytes) / 1e6 / sec })
	layer("xsort.sort_ns_per_edge", "xsort.RadixByU", nsPerEdge)
	layer("xsort.ext_ns_per_edge", "xsort.External", nsPerEdge)
	layer("sparse.build_ns_per_edge", "sparse.FromSortedEdges", nsPerEdge)
	layer("sparse.build_ns_per_edge", "fastio.ReadEdges>sparse.SortedBuilder", nsPerEdge)
	layer("pipeline.filter_ns_per_edge", "pipeline.ApplyKernel2Filter", nsPerEdge)
	layer("sparse.spmv_ns_per_nnz", "sparse.MxV", nsPerEdge)
	m := float64(w.m())
	layer("pagerank.iter_s", "pagerank.Iterate", func(sec float64, edges, _ int64) float64 { return sec * m / float64(edges) })
	if big, small := median(got["xsort.sort_ns_per_edge"]), median(perRep(sp, "probe", "xsort.RadixByU@scale-2", nsPerEdge)); small > 0 {
		got.add("xsort.scale_ratio", big/small)
	}
	for k := range prog.kernelSec {
		own := median(prog.kernelSec[k])
		if replayed := median(perRep(sp, "replay", fmt.Sprintf("k%d", k), spanSeconds)); own > 0 && replayed > 0 {
			got.add(fmt.Sprintf("trace.k%d_replay_gap_pct", k), 100*(replayed-own)/own)
		}
	}
	if own, replayed := median(prog.walls), median(perRep(sp, "replay", "replay", spanSeconds)); own > 0 && replayed > 0 {
		got.add("trace.overhead_pct", 100*(replayed-own)/own)
	}
}

// buildMatrix makes the filtered, normalized matrix of w's graph with
// the csr variant's functions.
func buildMatrix(w workload, seed uint64) (*sparse.CSR, error) {
	l, err := kronecker.Generate(kronecker.New(w.Scale, seed))
	if err != nil {
		return nil, err
	}
	xsort.RadixByU(l)
	a, err := sparse.FromSortedEdges(l, w.n())
	if err != nil {
		return nil, err
	}
	pipeline.ApplyKernel2Filter(a)
	return a, nil
}

// replay runs one traced repetition of the workload's phases under a
// "replay" root span.  cached is the prebuilt matrix of a warm workload.
func (s *session) replay(ctx context.Context, rec *recorder, cached *sparse.CSR) (out *replayOut, err error) {
	out = &replayOut{matrix: cached}
	root := rec.begin("replay")
	switch w := s.w; {
	case w.Procs > 0:
		err = s.replaySocket(ctx, rec, out)
	case w.Warm:
		err = replayK3(rec, w.m(), out)
	case w.Variant == "extsort":
		err = s.replayExtsort(rec, out)
	default:
		err = s.replayCSR(rec, out)
	}
	rec.end(root, s.w.m(), 0)
	return out, err
}

// meteredSpan times fn as a span that also carries the bytes fn moved
// through fs.
func meteredSpan(rec *recorder, fs *vfs.Metered, name string, edges int64, fn func() error) error {
	before := fs.Stats()
	id := rec.begin(name)
	err := fn()
	after := fs.Stats()
	rec.end(id, edges, after.BytesRead-before.BytesRead+after.BytesWritten-before.BytesWritten)
	return err
}

// replayCSR follows pipeline's csr variant: whole edge lists between
// kernels, each kernel dropping its list when it returns.
func (s *session) replayCSR(rec *recorder, out *replayOut) error {
	w, m := s.w, s.w.m()
	codec, err := fastio.CodecByName(w.Format)
	if err != nil {
		return err
	}
	fs := vfs.NewMetered(vfs.NewMem())
	err = rec.do("k0", m, func() error {
		var l *edge.List
		err := rec.do("kronecker.Generate", m, func() (err error) {
			l, err = kronecker.Generate(kronecker.New(w.Scale, s.seed))
			return err
		})
		if err != nil {
			return err
		}
		return meteredSpan(rec, fs, "fastio.WriteStriped", m, func() error { return fastio.WriteStriped(fs, "k0", codec, 1, l) })
	})
	if err != nil {
		return err
	}
	if out.k0Bytes, err = fastio.StripedBytes(fs, "k0", codec); err != nil {
		return err
	}
	err = rec.do("k1", m, func() error {
		var l *edge.List
		err := meteredSpan(rec, fs, "fastio.ReadStriped", m, func() (err error) {
			l, err = fastio.ReadStriped(fs, "k0", codec)
			return err
		})
		if err != nil {
			return err
		}
		_ = rec.do("xsort.RadixByU", m, func() error { xsort.RadixByU(l); return nil }) // cannot fail
		return meteredSpan(rec, fs, "fastio.WriteStriped", m, func() error { return fastio.WriteStriped(fs, "k1", codec, 1, l) })
	})
	if err != nil {
		return err
	}
	err = rec.do("k2", m, func() error {
		var l *edge.List
		err := meteredSpan(rec, fs, "fastio.ReadStriped", m, func() (err error) {
			l, err = fastio.ReadStriped(fs, "k1", codec)
			return err
		})
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = rec.do("sparse.FromSortedEdges", m, func() (err error) {
			out.matrix, err = sparse.FromSortedEdges(l, w.n())
			return err
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		out.buildAllocs = after.Mallocs - before.Mallocs
		return filterSpan(rec, m, out.matrix)
	})
	if err != nil {
		return err
	}
	out.io = fs.Stats()
	return replayK3(rec, m, out)
}

// filterSpan is kernel 2's tail in every serial variant: the mass
// check's sum, then the filter and normalization.
func filterSpan(rec *recorder, m int64, a *sparse.CSR) error {
	if mass := a.SumValues(); mass != float64(m) {
		return fmt.Errorf("matrix mass %v, want M = %d", mass, m)
	}
	return rec.do("pipeline.ApplyKernel2Filter", m, func() error { pipeline.ApplyKernel2Filter(a); return nil })
}

// replayK3 is kernel 3 as the csr and extsort variants run it: the
// gather engine over out.matrix, 20 single steps.
func replayK3(rec *recorder, m int64, out *replayOut) error {
	return rec.do("k3", pagerank.DefaultIterations*m, func() error {
		var eng *pagerank.Engine
		err := rec.do("pagerank.NewGatherEngine", 0, func() (err error) {
			eng, err = pagerank.NewGatherEngine(out.matrix, pagerank.Options{})
			return err
		})
		if err != nil {
			return err
		}
		for i := 0; i < pagerank.DefaultIterations; i++ {
			id := rec.begin("pagerank.Iterate")
			eng.Iterate()
			rec.end(id, m, 0)
		}
		out.rank = eng.Rank()
		return nil
	})
}

// replayExtsort follows pipeline's extsort variant: every kernel
// streams, so each kernel is one call from outside.
func (s *session) replayExtsort(rec *recorder, out *replayOut) error {
	w, m := s.w, s.w.m()
	codec, err := fastio.CodecByName(w.Format)
	if err != nil {
		return err
	}
	fs := vfs.NewMetered(s.fs)
	err = rec.do("k0", m, func() error {
		return meteredSpan(rec, fs, "kronecker.GenerateTo>fastio.StripedSink", m, func() error {
			sink, err := fastio.NewStripedSink(fs, "k0", codec, 1, m)
			if err != nil {
				return err
			}
			if err := kronecker.GenerateTo(kronecker.New(w.Scale, s.seed), sink); err != nil {
				sink.Close()
				return err
			}
			return sink.Close()
		})
	})
	if err != nil {
		return err
	}
	if out.k0Bytes, err = fastio.StripedBytes(fs, "k0", codec); err != nil {
		return err
	}
	err = rec.do("k1", m, func() error {
		return meteredSpan(rec, fs, "xsort.External", m, func() error {
			src, err := fastio.NewStripedSource(fs, "k0", codec)
			if err != nil {
				return err
			}
			defer src.Close()
			sink, err := fastio.NewStripedSink(fs, "k1", codec, 1, m)
			if err != nil {
				return err
			}
			st, err := xsort.External(src, sink, xsort.ExternalConfig{
				FS: fs, TmpPrefix: "tmp/extsort", RunEdges: int(m) / w.RunEdgesDiv, Codec: fastio.Packed{},
			})
			if err != nil {
				sink.Close()
				return err
			}
			out.ext = &st
			return sink.Close()
		})
	})
	if err != nil {
		return err
	}
	err = rec.do("k2", m, func() error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := meteredSpan(rec, fs, "fastio.ReadEdges>sparse.SortedBuilder", m, func() error {
			src, err := fastio.NewStripedSource(fs, "k1", codec)
			if err != nil {
				return err
			}
			defer src.Close()
			b, err := sparse.NewSortedBuilder(w.n())
			if err != nil {
				return err
			}
			buf := edge.NewList(0)
			for {
				buf.Reset()
				if _, err := fastio.ReadEdges(src, buf, 8192); err != nil {
					if err == io.EOF {
						break
					}
					return err
				}
				for i := 0; i < buf.Len(); i++ {
					if err := b.Add(buf.U[i], buf.V[i]); err != nil {
						return err
					}
				}
			}
			out.matrix = b.Finish()
			return nil
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		out.buildAllocs = after.Mallocs - before.Mallocs
		return filterSpan(rec, m, out.matrix)
	})
	if err != nil {
		return err
	}
	out.io = fs.Stats()
	return replayK3(rec, m, out)
}

// replaySocket is kernel 3 as the distgo variant runs it in socket
// mode: one dist.Execute that spawns the workers, scatters the matrix
// and iterates.
func (s *session) replaySocket(ctx context.Context, rec *recorder, out *replayOut) error {
	m := s.w.m()
	return rec.do("k3", pagerank.DefaultIterations*m, func() error {
		id := rec.begin("dist.Execute")
		t0 := time.Now()
		o, err := dist.Execute(ctx, dist.Spec{
			Config: dist.Config{Mode: dist.ExecSocket}, Op: dist.OpRunMatrix,
			Matrix: out.matrix, Procs: s.w.Procs,
		})
		out.distWall = time.Since(t0).Seconds()
		rec.end(id, pagerank.DefaultIterations*m, 0)
		if err != nil {
			return err
		}
		out.dist, out.rank = o.Run, o.Run.Rank
		return nil
	})
}

// checkReplay holds a replay to the program's result: same matrix size,
// the same rank vector bit for bit, and on the socket workload wire
// bytes == metered bytes == the closed form.
func (s *session) checkReplay(out *replayOut) error {
	if got := out.matrix.NNZ(); got != s.refNNZ {
		return fmt.Errorf("NNZ %d, reference %d", got, s.refNNZ)
	}
	if d := out.dist; d != nil {
		if d.Wire == nil {
			return fmt.Errorf("socket run reported no wire record")
		}
		metered, want := commBytes(d.Comm), predictedK3CommBytes(s.w.n(), s.w.Procs)
		if d.Wire.DataBytes != metered || metered != want {
			return fmt.Errorf("wire %d, metered %d, predicted %d communication bytes: want all equal", d.Wire.DataBytes, metered, want)
		}
	}
	return s.checkRank(out.rank)
}

// counts records the per-layer metrics a replay yields as counts rather
// than as spans.
func (s *session) counts(out *replayOut, got metricSet) {
	m := float64(s.w.m())
	if !s.w.Warm {
		got.add("fastio.bytes_per_edge", float64(out.k0Bytes)/m)
		got.add("vfs.read_mb", float64(out.io.BytesRead)/1e6)
		got.add("vfs.write_mb", float64(out.io.BytesWritten)/1e6)
		got.add("sparse.build_allocs", float64(out.buildAllocs))
	}
	if e := out.ext; e != nil {
		got.add("xsort.ext_runs", float64(e.Runs))
		got.add("xsort.spill_mb", float64(e.Spill.BytesWritten)/1e6)
	}
	if d := out.dist; d != nil {
		slowest, sum := 0.0, 0.0
		for _, sec := range d.RankSeconds {
			sum += sec
			if sec > slowest {
				slowest = sec
			}
		}
		got.add("dist.launch_share", (out.distWall-slowest)/out.distWall)
		got.add("dist.slowest_rank_share", slowest/out.distWall)
		if sum > 0 {
			got.add("dist.rank_imbalance", slowest*float64(len(d.RankSeconds))/sum)
		}
		got.add("dist.allreduce_calls", float64(d.Comm.AllReduceCalls))
		got.add("dist.comm_mb", float64(commBytes(d.Comm))/1e6)
		got.add("dist.comm_pred_ratio", float64(commBytes(d.Comm))/float64(predictedK3CommBytes(s.w.n(), s.w.Procs)))
		got.add("fabric.wire_data_mb", float64(d.Wire.DataBytes)/1e6)
		got.add("fabric.wire_overhead_pct", 100*float64(d.Wire.OverheadBytes+d.Wire.ControlBytes)/float64(d.Wire.DataBytes))
		got.add("fabric.frames", float64(d.Wire.Frames))
	}
}

// discard is an edge sink that drops what it is given, to time the
// generator without a codec behind it.
type discard struct{}

func (discard) WriteEdge(u, v uint64) error { return nil }
func (discard) Flush() error                { return nil }

// probe times, under a "probe" root, the public functions the replay
// of this workload cannot separate.
func (s *session) probe(rec *recorder, out *replayOut) error {
	w, m := s.w, s.w.m()
	root := rec.begin("probe")
	defer func() { rec.end(root, 0, 0) }()

	// The product the gather engine's step is made of, without the
	// engine's vector update.
	at := out.matrix.Transpose()
	x, y := pagerank.InitVector(at.N, 0), make([]float64, at.N)
	for i := 0; i < pagerank.DefaultIterations; i++ {
		id := rec.begin("sparse.MxV")
		at.MxV(y, x)
		rec.end(id, int64(at.NNZ()), 0)
	}
	if w.Procs > 0 {
		// The plain single-process kernel 3 of the same matrix, as the
		// baseline the ranks' time is read against.
		if err := replayK3(rec, m, &replayOut{matrix: out.matrix}); err != nil {
			return err
		}
	}
	if w.Warm {
		return nil
	}

	var fs vfs.FS = vfs.NewMem()
	if s.fs != nil {
		fs = s.fs
	}
	// The storage layer alone: kernel 0's byte volume through
	// Create/Write/Close, no codec.
	id := rec.begin("vfs.Create+Write+Close")
	err := writeBytes(fs, "probe.raw", out.k0Bytes)
	rec.end(id, 0, out.k0Bytes)
	if err != nil {
		return err
	}
	if err := fs.Remove("probe.raw"); err != nil {
		return err
	}

	if w.Variant != "extsort" {
		// How the radix sort's cost per edge grows over two scales.
		small, err := kronecker.Generate(kronecker.New(w.Scale-2, s.seed))
		if err != nil {
			return err
		}
		return rec.do("xsort.RadixByU@scale-2", int64(small.Len()), func() error { xsort.RadixByU(small); return nil })
	}

	// extsort streams generator into codec into file and file into
	// codec into sorter; time generator and codec on their own.
	err = rec.do("kronecker.GenerateTo", m, func() error {
		return kronecker.GenerateTo(kronecker.New(w.Scale, s.seed), discard{})
	})
	if err != nil {
		return err
	}
	codec, err := fastio.CodecByName(w.Format)
	if err != nil {
		return err
	}
	var l *edge.List
	err = rec.do("fastio.ReadStriped", m, func() (err error) {
		l, err = fastio.ReadStriped(fs, "k0", codec)
		return err
	})
	if err != nil {
		return err
	}
	err = rec.do("fastio.WriteStriped", m, func() error { return fastio.WriteStriped(fs, "probe", codec, 1, l) })
	if err != nil {
		return err
	}
	return fs.Remove(fastio.StripeName("probe", codec, 0))
}

// writeBytes writes n zero bytes to name in 1 MiB writes.
func writeBytes(fs vfs.FS, name string, n int64) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	chunk := make([]byte, 1<<20)
	for n > 0 {
		if n < int64(len(chunk)) {
			chunk = chunk[:n]
		}
		if _, err := f.Write(chunk); err != nil {
			f.Close()
			return err
		}
		n -= int64(len(chunk))
	}
	return f.Close()
}

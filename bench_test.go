// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation section:
//
//	BenchmarkTableISLOC       — Table I,  source lines of code per variant
//	BenchmarkTableIIRunSizes  — Table II, benchmark run sizes
//	BenchmarkFigure4Kernel0   — Figure 4, K0 edges/s vs edges, per variant
//	BenchmarkFigure5Kernel1   — Figure 5, K1 edges/s vs edges, per variant
//	BenchmarkFigure6Kernel2   — Figure 6, K2 edges/s vs edges, per variant
//	BenchmarkFigure7Kernel3   — Figure 7, K3 edges/s vs edges, per variant
//
// plus BenchmarkAblation* for the design alternatives the paper's §V
// leaves open.  Every figure bench reports the paper's metric as the
// custom unit "edges/s" (and sets bytes = edges so the standard MB/s
// column reads as millions of edges per second).
//
// Scales default to 12/14/16 so `go test -bench=.` completes in minutes;
// cmd/prbench -sweep runs the paper's full 16–22 range.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/gensuite"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xrand"
	"repro/internal/xsort"
)

// benchScales are the sweep points for the figure benchmarks.
var benchScales = []int{12, 14, 16}

func benchCfg(variant string, scale int) pipeline.Config {
	return pipeline.Config{Scale: scale, Seed: 1, Variant: variant}
}

// reportEdges attaches the paper's metric to a bench that processed
// edges·b.N edges in total.
func reportEdges(b *testing.B, edges uint64) {
	b.SetBytes(int64(edges)) // MB/s column == millions of edges/s
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(edges)*float64(b.N)/sec, "edges/s")
	}
}

// prepare runs the given kernels once on a fresh in-memory FS and returns
// the configured run state for timing later kernels.
func prepare(b *testing.B, cfg pipeline.Config, kernels []pipeline.Kernel) pipeline.Config {
	b.Helper()
	cfg.FS = vfs.NewMem()
	if len(kernels) > 0 {
		if _, err := pipeline.ExecuteKernelsContext(context.Background(), cfg, kernels); err != nil {
			b.Fatal(err)
		}
	}
	return cfg
}

// ---------------------------------------------------------------------------
// Table I

func BenchmarkTableISLOC(b *testing.B) {
	// Table I is static (source lines per variant); the bench verifies the
	// registry is complete and reports the variant count as its metric.
	var n int
	for i := 0; i < b.N; i++ {
		n = len(pipeline.VariantNames())
	}
	if n != 9 {
		b.Fatalf("expected 9 variants, have %d", n)
	}
	b.ReportMetric(float64(n), "variants")
	// The actual table: go run ./cmd/sloc
}

// ---------------------------------------------------------------------------
// Table II

func BenchmarkTableIIRunSizes(b *testing.B) {
	var rows []pipeline.SizeRow
	for i := 0; i < b.N; i++ {
		rows = pipeline.SizeTable(pipeline.PaperScales, 0, 0)
	}
	if len(rows) != 7 || pipeline.HumanBytes(rows[6].MemoryBytes) != "1.6GB" {
		b.Fatal("Table II does not reproduce the paper's published values")
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// ---------------------------------------------------------------------------
// Figures 4-7: per-kernel, per-variant, per-scale sweeps

func BenchmarkFigure4Kernel0(b *testing.B) {
	for _, v := range pipeline.VariantNames() {
		for _, s := range benchScales {
			b.Run(fmt.Sprintf("%s/scale%d", v, s), func(b *testing.B) {
				cfg := prepare(b, benchCfg(v, s), nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipeline.ExecuteKernelsContext(context.Background(), cfg, []pipeline.Kernel{pipeline.K0Generate}); err != nil {
						b.Fatal(err)
					}
				}
				reportEdges(b, cfg.M())
			})
		}
	}
}

func BenchmarkFigure5Kernel1(b *testing.B) {
	for _, v := range pipeline.VariantNames() {
		for _, s := range benchScales {
			b.Run(fmt.Sprintf("%s/scale%d", v, s), func(b *testing.B) {
				cfg := prepare(b, benchCfg(v, s), []pipeline.Kernel{pipeline.K0Generate})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipeline.ExecuteKernelsContext(context.Background(), cfg, []pipeline.Kernel{pipeline.K1Sort}); err != nil {
						b.Fatal(err)
					}
				}
				reportEdges(b, cfg.M())
			})
		}
	}
}

func BenchmarkFigure6Kernel2(b *testing.B) {
	for _, v := range pipeline.VariantNames() {
		for _, s := range benchScales {
			b.Run(fmt.Sprintf("%s/scale%d", v, s), func(b *testing.B) {
				cfg := prepare(b, benchCfg(v, s), []pipeline.Kernel{pipeline.K0Generate, pipeline.K1Sort})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipeline.ExecuteKernelsContext(context.Background(), cfg, []pipeline.Kernel{pipeline.K2Filter}); err != nil {
						b.Fatal(err)
					}
				}
				reportEdges(b, cfg.M())
			})
		}
	}
}

func BenchmarkFigure7Kernel3(b *testing.B) {
	for _, v := range pipeline.VariantNames() {
		for _, s := range benchScales {
			b.Run(fmt.Sprintf("%s/scale%d", v, s), func(b *testing.B) {
				cfg := prepare(b, benchCfg(v, s), []pipeline.Kernel{pipeline.K0Generate, pipeline.K1Sort})
				// Kernel 3 requires kernel 2's in-memory matrix; build it
				// once outside the timer, then time K3 alone via the
				// variant interface.
				variant, err := pipeline.Lookup(v)
				if err != nil {
					b.Fatal(err)
				}
				run := &pipeline.Run{Cfg: cfg, FS: cfg.FS}
				if err := variant.Kernel2(run); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := variant.Kernel3(run); err != nil {
						b.Fatal(err)
					}
				}
				reportEdges(b, 20*cfg.M())
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (paper §V open questions and design choices)

func randomEdges(seed uint64, m int, n uint64) *edge.List {
	g := xrand.New(seed)
	l := edge.NewList(m)
	for i := 0; i < m; i++ {
		l.Append(g.Uint64n(n), g.Uint64n(n))
	}
	return l
}

// "Should the end vertices in kernel 1 also be sorted?"
func BenchmarkAblationSortUVsUV(b *testing.B) {
	src := randomEdges(1, 1<<18, 1<<18)
	work := src.Clone()
	for _, mode := range []struct {
		name string
		sort func(*edge.List)
	}{
		{"u-only", xsort.RadixByU},
		{"u-and-v", xsort.RadixByUV},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work.U, src.U)
				copy(work.V, src.V)
				mode.sort(work)
			}
			reportEdges(b, uint64(src.Len()))
		})
	}
}

// Radix vs comparison sort (the optimized/naive kernel-1 split).
func BenchmarkAblationRadixVsStdSort(b *testing.B) {
	src := randomEdges(2, 1<<17, 1<<18)
	work := src.Clone()
	for _, mode := range []struct {
		name string
		sort func(*edge.List)
	}{
		{"radix", xsort.RadixByU},
		{"std", xsort.ByU},
		{"parallel", func(l *edge.List) { xsort.ParallelByU(l, 4) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work.U, src.U)
				copy(work.V, src.V)
				mode.sort(work)
			}
			reportEdges(b, uint64(src.Len()))
		})
	}
}

// Scatter (CSR row-major) vs gather (transpose) kernel-3 engines.
func BenchmarkAblationScatterVsGather(b *testing.B) {
	l := randomEdges(3, 16<<12, 1<<12)
	a, err := sparse.FromEdges(l, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	pipeline.ApplyKernel2Filter(a)
	for _, mode := range []struct {
		name string
		run  func() error
	}{
		{"scatter", func() error { _, err := pagerank.Scatter(a, pagerank.Options{}); return err }},
		{"gather", func() error { _, err := pagerank.Gather(a, pagerank.Options{}); return err }},
		{"parallel", func() error { _, err := pagerank.Parallel(a, pagerank.Options{Workers: 4}); return err }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := mode.run(); err != nil {
					b.Fatal(err)
				}
			}
			reportEdges(b, uint64(20*a.NNZ()))
		})
	}
}

// "Should a diagonal entry be added ... to allow convergence?" — the
// related measurable choice: dangling correction on/off.
func BenchmarkAblationDanglingCorrection(b *testing.B) {
	l := randomEdges(4, 16<<12, 1<<12)
	a, _ := sparse.FromEdges(l, 1<<12)
	pipeline.ApplyKernel2Filter(a)
	for _, dangling := range []bool{false, true} {
		b.Run(fmt.Sprintf("dangling=%v", dangling), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pagerank.Gather(a, pagerank.Options{Dangling: dangling}); err != nil {
					b.Fatal(err)
				}
			}
			reportEdges(b, uint64(20*a.NNZ()))
		})
	}
}

// Text vs binary edge encoding (how much of K0/K1 is string handling).
func BenchmarkAblationTextVsBinaryCodec(b *testing.B) {
	l := randomEdges(5, 1<<17, 1<<20)
	for _, codec := range []fastio.Codec{fastio.TSV{}, fastio.NaiveTSV{}, fastio.Binary{}} {
		b.Run(codec.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs := vfs.NewMem()
				if err := fastio.WriteStriped(fs, "e", codec, 1, l); err != nil {
					b.Fatal(err)
				}
				if _, err := fastio.ReadStriped(fs, "e", codec); err != nil {
					b.Fatal(err)
				}
			}
			reportEdges(b, uint64(l.Len()))
		})
	}
}

// Edge-file format ablation on the out-of-core sort: kernel 1 of the
// extsort variant timed under each codec, the Figure-7-style table
// showing the sort going hardware-bound once text parsing leaves the
// loop (and the packed codec trading a little decode work for a third
// of the bytes).
func BenchmarkAblationEdgeFormats(b *testing.B) {
	const scale = 14
	for _, format := range []string{"tsv", "bin", "packed"} {
		b.Run(format, func(b *testing.B) {
			cfg := benchCfg("extsort", scale)
			cfg.Format = format
			cfg.RunEdges = 1 << 16
			cfg = prepare(b, cfg, []pipeline.Kernel{pipeline.K0Generate})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.ExecuteKernelsContext(context.Background(), cfg, []pipeline.Kernel{pipeline.K1Sort}); err != nil {
					b.Fatal(err)
				}
			}
			reportEdges(b, cfg.M())
		})
	}
}

// "Should a more deterministic generator be used in kernel 0?"
func BenchmarkAblationGenerators(b *testing.B) {
	const scale = 14
	gens := []struct {
		name string
		gen  func() (*edge.List, error)
	}{
		{"kronecker", func() (*edge.List, error) { return kronecker.Generate(kronecker.New(scale, 1)) }},
		{"ppl", gensuite.PPL{Scale: scale, EdgeFactor: 16, Seed: 1}.Generate},
		{"er", gensuite.ER{Scale: scale, EdgeFactor: 16, Seed: 1}.Generate},
	}
	for _, g := range gens {
		b.Run(g.name, func(b *testing.B) {
			var m int
			for i := 0; i < b.N; i++ {
				l, err := g.gen()
				if err != nil {
					b.Fatal(err)
				}
				m = l.Len()
			}
			reportEdges(b, uint64(m))
		})
	}
}

// "Are the values of the adjacency matrix required to be floating point
// values?" — compare the float64 product against integer-weight traversal.
func BenchmarkAblationFloatVsIntValues(b *testing.B) {
	l := randomEdges(6, 16<<12, 1<<12)
	a, _ := sparse.FromEdges(l, 1<<12)
	intVals := make([]uint32, len(a.Val))
	for i, v := range a.Val {
		intVals[i] = uint32(v)
	}
	x := pagerank.InitVector(a.N, 1)
	out := make([]float64, a.N)
	b.Run("float64-values", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.VxM(out, x)
		}
		reportEdges(b, uint64(a.NNZ()))
	})
	b.Run("uint32-values", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range out {
				out[j] = 0
			}
			for r := 0; r < a.N; r++ {
				xr := x[r]
				for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
					out[a.Col[k]] += xr * float64(intVals[k])
				}
			}
		}
		reportEdges(b, uint64(a.NNZ()))
	})
}

// Distributed kernel-3 scaling with communication accounting (the paper's
// parallel analysis).
func BenchmarkAblationDistributedProcs(b *testing.B) {
	l, err := kronecker.Generate(kronecker.New(12, 1))
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 12
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			var comm dist.CommStats
			for i := 0; i < b.N; i++ {
				out, err := dist.Execute(context.Background(), dist.Spec{
					Op: dist.OpRun, Edges: l, N: n, Procs: p, PageRank: pagerank.Options{Seed: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				comm = out.Run.Comm
			}
			reportEdges(b, 20*uint64(l.Len()))
			b.ReportMetric(float64(comm.AllReduceBytes+comm.BroadcastBytes)/1e6, "commMB")
		})
	}
}

// Hybrid intra-rank scaling of the distributed kernel 3: p goroutine
// ranks × w workers per rank (dist.Config.Workers).  Results are
// bit-for-bit invariant in w; only wall clock moves.  ReportAllocs makes
// the steady-state allocation budget visible in the bench output.
func BenchmarkAblationHybridRankWorkers(b *testing.B) {
	l, err := kronecker.Generate(kronecker.New(13, 1))
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 13
	out, err := dist.Execute(context.Background(), dist.Spec{Op: dist.OpBuildFiltered, Edges: l, N: n, Procs: 1})
	if err != nil {
		b.Fatal(err)
	}
	built := out.Build
	for _, p := range []int{1, 4} {
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("procs=%d/workers=%d", p, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := dist.Execute(context.Background(), dist.Spec{
						Config: dist.Config{Mode: dist.ExecGoroutine, Workers: w},
						Op:     dist.OpRunMatrix, Matrix: built.Matrix, Procs: p, PageRank: pagerank.Options{Seed: 1},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				reportEdges(b, 20*uint64(built.Matrix.NNZ()))
			})
		}
	}
}

// Warm Service runs against the staged artifact cache: one cold run
// deposits the kernel-2 matrix, then every timed iteration is a pure
// kernel-3 run served from the cache.  Compare against
// BenchmarkFigure7Kernel3 csr/scale14 — the warm run should track it,
// the cache fetch adding only noise.
func BenchmarkServiceWarmRun(b *testing.B) {
	const scale = 14
	svc := core.NewService(core.WithMaxConcurrent(1))
	defer svc.Close()
	ctx := context.Background()
	cfg := core.Config{Scale: scale, Seed: 1, Variant: "csr"}
	if _, err := svc.Run(ctx, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Run(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cache == nil || res.Cache.Matrix.Hits != 1 {
			b.Fatalf("warm run missed the matrix stage: %+v", res.Cache)
		}
	}
	reportEdges(b, 20*cfg.M())
}

// Hardware-model prediction vs measurement for kernel 3 (paper §V:
// performance predictions from simple hardware models).
func BenchmarkPerfModelKernel3VsMeasured(b *testing.B) {
	const scale = 14
	cfg := prepare(b, benchCfg("csr", scale), []pipeline.Kernel{pipeline.K0Generate, pipeline.K1Sort})
	variant, _ := pipeline.Lookup("csr")
	run := &pipeline.Run{Cfg: cfg, FS: cfg.FS}
	if err := variant.Kernel2(run); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := variant.Kernel3(run); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, 20*cfg.M())
	pred := perfmodel.Kernel3(perfmodel.PaperNode(), perfmodel.Workload{Scale: scale})
	b.ReportMetric(pred.EdgesPerSecond, "predicted-edges/s")
}

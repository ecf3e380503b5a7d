// Command prreport regenerates the paper's whole evaluation section in one
// run: Table II, a figure sweep across all implementation variants, the
// correctness-validation suite, the hardware-model predictions, and the
// distributed communication check — both execution modes cross-checked
// bit-for-bit against each other and against the closed-form byte model,
// the out-of-core distributed sort checked against the serial sort and
// the in-memory sort's communication record, plus a goroutine-rank
// wall-clock scaling table — emitted as a single markdown report.
//
//	prreport -minscale 12 -maxscale 14 > report.md
//
// Larger scales reproduce the paper's axes but take correspondingly longer
// (the naive variant's kernel 2 is the long pole, exactly as in the paper).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/results"
	"repro/internal/xsort"
)

func main() {
	var (
		minScale = flag.Int("minscale", 12, "sweep: smallest scale")
		maxScale = flag.Int("maxscale", 14, "sweep: largest scale")
		seed     = flag.Uint64("seed", 1, "random seed")
		procs    = flag.Int("procs", 4, "distributed simulation processor count")
	)
	flag.Parse()

	fmt.Println("# PageRank Pipeline Benchmark — evaluation report")
	fmt.Println()

	tableII()
	figures(*minScale, *maxScale, *seed)
	validation(*seed)
	predictions()
	distributed(*seed, *procs)
}

func tableII() {
	fmt.Println("## Table II — benchmark run sizes")
	fmt.Println()
	t := results.NewTable("", "Scale", "Max Vertices", "Max Edges", "~Memory")
	for _, r := range pipeline.SizeTable(pipeline.PaperScales, 0, 0) {
		t.AddRow(fmt.Sprintf("%d", r.Scale), pipeline.HumanCount(r.MaxVertices),
			pipeline.HumanCount(r.MaxEdges), pipeline.HumanBytes(r.MemoryBytes))
	}
	fmt.Println(t.Markdown())
}

func figures(minScale, maxScale int, seed uint64) {
	// Like prbench -sweep: the per-variant kernel-0 measurement must
	// actually generate, so this service's cache is disabled.
	svc := core.NewService(core.WithCacheBudget(0), core.WithMaxConcurrent(1))
	defer svc.Close()
	titles := [4]string{
		"Figure 4 — kernel 0 (generate)",
		"Figure 5 — kernel 1 (sort)",
		"Figure 6 — kernel 2 (filter)",
		"Figure 7 — kernel 3 (PageRank)",
	}
	figs := [4]*results.Figure{}
	for k := range figs {
		figs[k] = &results.Figure{Title: titles[k], XLabel: "number of edges", YLabel: "edges per second"}
	}
	for _, v := range core.Variants() {
		series := [4]results.Series{}
		for k := range series {
			series[k].Label = v
		}
		for s := minScale; s <= maxScale; s++ {
			cfg := core.Config{Scale: s, Seed: seed, Variant: v}
			res, err := svc.Run(context.Background(), cfg)
			if err != nil {
				fatal(err)
			}
			for k, kr := range res.Kernels {
				series[k].X = append(series[k].X, float64(cfg.M()))
				series[k].Y = append(series[k].Y, kr.EdgesPerSecond)
			}
		}
		for k := range figs {
			figs[k].Add(series[k])
		}
	}
	for _, f := range figs {
		fmt.Printf("## %s\n\n```\n%s```\n\n", f.Title, f.ASCII(64, 16))
		fmt.Printf("```csv\n%s```\n\n", f.CSV())
	}
}

func validation(seed uint64) {
	fmt.Println("## Correctness validation (V1–V6)")
	fmt.Println()
	t := results.NewTable("", "Variant", "Result", "Checks")
	for _, v := range core.Variants() {
		rep, err := pipeline.Validate(core.Config{Scale: 8, Seed: seed, Variant: v})
		if err != nil {
			fatal(err)
		}
		status := "PASS"
		if !rep.Passed {
			status = "FAIL"
		}
		t.AddRow(v, status, fmt.Sprintf("%d", len(rep.Checks)))
	}
	fmt.Println(t.Markdown())
}

func predictions() {
	fmt.Println("## Hardware-model predictions (paper platform, scale 22)")
	fmt.Println()
	h := perfmodel.PaperNode()
	w := perfmodel.Workload{Scale: 22}
	t := results.NewTable("", "Kernel", "Predicted edges/s", "Bound")
	for i, p := range perfmodel.All(h, w) {
		t.AddRow(fmt.Sprintf("kernel %d", i), fmt.Sprintf("%.3g", p.EdgesPerSecond), p.Bound)
	}
	fmt.Println(t.Markdown())
}

func distributed(seed uint64, procs int) {
	fmt.Println("## Distributed execution (simulated and goroutine ranks)")
	fmt.Println()
	kcfg := kronecker.New(12, seed)
	l, err := kronecker.Generate(kcfg)
	if err != nil {
		fatal(err)
	}
	n := int(kcfg.N())
	runMode := func(mode dist.ExecMode) *dist.Result {
		out, err := dist.Execute(context.Background(), dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpRun,
			Edges: l, N: n, Procs: procs, PageRank: pagerank.Options{Seed: seed},
		})
		if err != nil {
			fatal(err)
		}
		return out.Run
	}
	sim := runMode(dist.ExecSim)
	real := runMode(dist.ExecGoroutine)
	predicted := dist.PredictedCommBytes(n, procs, pagerank.DefaultIterations, false)
	fmt.Printf("- processors: %d\n", procs)
	fmt.Printf("- all-reduce calls: %d, broadcast calls: %d\n", sim.Comm.AllReduceCalls, sim.Comm.BroadcastCalls)
	fmt.Printf("- simulated communication: %d bytes\n", sim.Comm.AllReduceBytes+sim.Comm.BroadcastBytes)
	fmt.Printf("- goroutine channel bytes: %d\n", real.Comm.AllReduceBytes+real.Comm.BroadcastBytes)
	fmt.Printf("- closed-form prediction: %d bytes (all three must match exactly)\n", predicted)
	match := sim.Comm == real.Comm && sim.Comm.AllReduceBytes+sim.Comm.BroadcastBytes == predicted
	bitwise := len(sim.Rank) == len(real.Rank)
	if bitwise {
		for i := range sim.Rank {
			if real.Rank[i] != sim.Rank[i] {
				bitwise = false
				break
			}
		}
	}
	fmt.Printf("- bytes match: %v, rank vectors bit-for-bit: %v\n\n", match, bitwise)
	if !match || !bitwise {
		fatal(fmt.Errorf("goroutine runtime diverges from the simulation or the closed-form model"))
	}
	outOfCore(l, procs)
	scaling(l, n, seed)
}

// outOfCore cross-checks the out-of-core distributed kernel 1: both
// execution modes against the serial stable radix sort bit for bit, the
// communication record against the in-memory distributed sort, and the
// spill volume against the 16-bytes-per-edge round trip the parallel
// hardware model prices.
func outOfCore(l *edge.List, procs int) {
	fmt.Println("### Out-of-core distributed sort")
	fmt.Println()
	serial := l.Clone()
	xsort.RadixByU(serial)
	inMemOut, err := dist.Execute(context.Background(), dist.Spec{Op: dist.OpSort, Edges: l, Procs: procs})
	if err != nil {
		fatal(err)
	}
	inMem := inMemOut.Sort
	runEdges := l.Len()/(3*procs) + 1 // force ~3 spilled runs per rank
	for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
		out, err := dist.Execute(context.Background(), dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpSortExternal,
			Edges: l, Procs: procs, Ext: dist.ExtSortConfig{RunEdges: runEdges},
		})
		if err != nil {
			fatal(err)
		}
		res := out.ExtSort
		if !res.Sorted.Equal(serial) {
			fatal(fmt.Errorf("out-of-core sort (%v) diverges from the serial radix sort", mode))
		}
		if res.Comm != inMem.Comm {
			fatal(fmt.Errorf("out-of-core sort (%v) comm %+v differs from in-memory %+v", mode, res.Comm, inMem.Comm))
		}
		totalRuns := 0
		for _, r := range res.RunsPerRank {
			totalRuns += r
		}
		fmt.Printf("- %v: %d runs spilled (%d-edge buffers), %d bytes written + %d read back, all-to-all %d bytes\n",
			mode, totalRuns, runEdges, res.Spill.BytesWritten, res.Spill.BytesRead, res.Comm.AllToAllBytes)
	}
	fmt.Println("- both modes bit-for-bit equal to the serial sort; comm records equal the in-memory sample sort's")
	fmt.Println()
}

// scaling tabulates the goroutine runtime's wall-clock across rank counts
// against the parallel hardware model — the validation of the modelled
// comm schedule against real concurrent execution.
func scaling(l *edge.List, n int, seed uint64) {
	fmt.Println("### Goroutine-rank wall-clock scaling")
	fmt.Println()
	h := perfmodel.PaperNode()
	w := perfmodel.Workload{Scale: 12}
	t := results.NewTable("", "Ranks", "Slowest rank s", "Speedup", "Model speedup", "Imbalance")
	base := 0.0
	for _, p := range []int{1, 2, 4, 8} {
		out, err := dist.Execute(context.Background(), dist.Spec{
			Config: dist.Config{Mode: dist.ExecGoroutine}, Op: dist.OpRun,
			Edges: l, N: n, Procs: p, PageRank: pagerank.Options{Seed: seed},
		})
		if err != nil {
			fatal(err)
		}
		res := out.Run
		cmp, err := perfmodel.CompareRankElapsed(h, w, res.RankSeconds)
		if err != nil {
			fatal(err)
		}
		if base == 0 {
			base = cmp.MeasuredSeconds
		}
		t.AddRow(fmt.Sprintf("%d", p),
			fmt.Sprintf("%.4f", cmp.MeasuredSeconds),
			fmt.Sprintf("%.2f", base/cmp.MeasuredSeconds),
			fmt.Sprintf("%.2f", perfmodel.Speedup(h, w, p)),
			fmt.Sprintf("%.2f", cmp.Imbalance))
	}
	fmt.Println(t.Markdown())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prreport:", err)
	os.Exit(1)
}

// Quickstart: run the full four-kernel PageRank pipeline benchmark at a
// laptop-friendly scale through the core.Service session API and print
// the paper's per-kernel metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/results"
)

func main() {
	// One long-lived Service fronts every run: it bounds concurrency,
	// owns the shared matrix cache, and threads ctx down to the
	// kernels so Ctrl-C-style cancellation aborts mid-run.
	ctx := context.Background()
	svc := core.NewService()
	defer svc.Close()

	// Scale 14: N = 16K vertices, M = 262K edges — a subsecond run.
	cfg := core.Config{
		Scale:   14,
		Seed:    1,
		NFiles:  2,     // the paper's free parameter: edge files per kernel
		Variant: "csr", // the optimized implementation
	}
	res, err := svc.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	t := results.NewTable(
		fmt.Sprintf("PageRank pipeline benchmark, scale %d (N=%s, M=%s)",
			cfg.Scale, pipeline.HumanCount(cfg.N()), pipeline.HumanCount(cfg.M())),
		"kernel", "seconds", "edges/second")
	for _, k := range res.Kernels {
		t.AddRow(k.Kernel.String(), fmt.Sprintf("%.4f", k.Seconds), fmt.Sprintf("%.4g", k.EdgesPerSecond))
	}
	fmt.Print(t.Plain())

	fmt.Printf("\nmatrix mass before filtering: %.0f (must equal M = %d)\n", res.MatrixMass, cfg.M())
	fmt.Printf("stored entries after filtering: %d (< M because of duplicate collisions and filtering)\n", res.NNZ)
	fmt.Printf("PageRank iterations: %d (fixed, per the benchmark definition)\n", res.RankIterations)

	// The same pipeline through every registered implementation variant.
	// All the scale-12 runs share one (scale 12, seed 1) graph through
	// the service's matrix cache: the first run computes and deposits the
	// kernel-2 matrix, and every later participant starts straight at
	// kernel 3 — res.Cache says whether a run hit.
	fmt.Println("\nkernel-3 rate by implementation variant:")
	for _, v := range core.Variants() {
		vres, err := svc.Run(ctx, core.Config{Scale: 12, Seed: 1, Variant: v})
		if err != nil {
			log.Fatal(err)
		}
		k3 := vres.KernelResultFor(core.K3PageRank)
		from := "computed all kernels"
		if vres.Cache.Matrix.Hits > 0 {
			from = "cached K2 matrix"
		}
		fmt.Printf("  %-10s %.4g edges/s (%s)\n", v, k3.EdgesPerSecond, from)
	}
	st := svc.Stats()
	fmt.Printf("\nservice totals: %d runs; matrix cache hits/misses %d/%d (%d bytes resident)\n",
		st.RunsStarted,
		st.CacheMatrix.Hits, st.CacheMatrix.Misses,
		st.CacheBytes)
}

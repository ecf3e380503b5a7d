// Outofcore: the paper's "u and v too large to fit in memory" regime.
// This example runs the extsort variant against real disk files with a
// deliberately tiny in-memory run buffer, forcing the external merge sort
// to spill and merge many runs, then verifies the result matches the
// in-memory variant bit for bit.
//
//	go run ./examples/outofcore
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

func main() {
	dir, err := os.MkdirTemp("", "prpipeline-outofcore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fsys, err := vfs.NewDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	svc := core.NewService()
	defer svc.Close()

	const scale = 14 // M = 262144 edges
	cfg := core.Config{
		Scale:    scale,
		Seed:     9,
		NFiles:   4,
		Variant:  "extsort",
		FS:       fsys,
		RunEdges: 8 << 10, // pretend only 8Ki edges (128 KiB) fit in RAM -> ~32 spill runs
		KeepRank: true,
		PageRank: pagerank.Options{Seed: 9},
	}
	fmt.Printf("out-of-core pipeline: scale %d, run buffer %d edges (~%d KiB of 'RAM')\n",
		scale, cfg.RunEdges, cfg.RunEdges*16/1024)
	res, err := svc.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range res.Kernels {
		fmt.Printf("  %-18s %8.3fs   %.4g edges/s\n", k.Kernel, k.Seconds, k.EdgesPerSecond)
	}

	// Ground truth: the fully in-memory optimized variant on the same
	// seed must produce the identical matrix and (up to FP reassociation)
	// the same ranks.  The extsort run above deposited its kernel-2
	// matrix in the service's matrix cache, so a csr run through svc
	// would be served that very artifact — validating it against itself.
	// RunOnce uses a throwaway service: genuinely independent.
	ref, err := core.RunOnce(ctx, core.Config{
		Scale: scale, Seed: 9, Variant: "csr", KeepRank: true,
		PageRank: pagerank.Options{Seed: 9},
	})
	if err != nil {
		log.Fatal(err)
	}
	if ref.Cache != nil && ref.Cache.Matrix.Hits > 0 {
		log.Fatalf("expected an independent validation run, but it hit a cache: %+v", ref.Cache)
	}
	if res.NNZ != ref.NNZ {
		log.Fatalf("NNZ mismatch: out-of-core %d vs in-memory %d", res.NNZ, ref.NNZ)
	}
	var maxDiff float64
	for i := range ref.Rank {
		if d := math.Abs(res.Rank[i] - ref.Rank[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("\nvalidation: matrix NNZ identical (%d); max rank deviation vs in-memory: %.2g\n",
		res.NNZ, maxDiff)
	if maxDiff > 1e-9 {
		log.Fatal("out-of-core result diverged from in-memory result")
	}
	fmt.Println("out-of-core and in-memory pipelines agree.")
}

package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// ExampleNewService runs the benchmark through the session API: a
// long-lived Service whose staged artifact cache makes the second
// same-graph run skip kernels 0–2 entirely — it is served the cached
// kernel-2 matrix (bit-identical across variants) and only runs
// PageRank.
func ExampleNewService() {
	svc := core.NewService(core.WithMaxConcurrent(2))
	defer svc.Close()
	ctx := context.Background()
	cfg := core.Config{Scale: 6, EdgeFactor: 4, Seed: 1}
	if _, err := svc.Run(ctx, cfg); err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg.Variant = "dist" // same graph, different implementation
	res, err := svc.Run(ctx, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	st := svc.Stats()
	fmt.Println("second run matrix hits:", res.Cache.Matrix.Hits)
	fmt.Println("second run kernels executed:", len(res.Kernels))
	fmt.Println("service misses:", st.CacheMatrix.Misses)
	fmt.Println("pagerank iterations:", res.RankIterations)
	// Output:
	// second run matrix hits: 1
	// second run kernels executed: 1
	// service misses: 1
	// pagerank iterations: 20
}

// ExampleRunOnce executes the full four-kernel benchmark at a tiny scale and
// prints the structural invariants (timings vary run to run, so the
// example prints only deterministic quantities).
func ExampleRunOnce() {
	res, err := core.RunOnce(context.Background(), core.Config{Scale: 6, EdgeFactor: 4, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("kernels run:", len(res.Kernels))
	fmt.Println("edges:", res.Kernels[0].Edges)
	fmt.Println("matrix mass:", res.MatrixMass)
	fmt.Println("pagerank iterations:", res.RankIterations)
	// Output:
	// kernels run: 4
	// edges: 256
	// matrix mass: 256
	// pagerank iterations: 20
}

// ExampleSizeTable reproduces the first row of the paper's Table II.
func ExampleSizeTable() {
	rows := core.SizeTable([]int{16}, 0, 0)
	r := rows[0]
	fmt.Println(r.Scale, r.MaxVertices, r.MaxEdges, r.MemoryBytes)
	// Output:
	// 16 65536 1048576 25165824
}

// ExampleVariants lists the implementation variants: the five serial
// analogues of the paper's language implementations plus the
// distributed pipeline, registered as dist and distgo
// (Config.RunEdges takes it out of core).
func ExampleVariants() {
	for _, v := range core.Variants() {
		fmt.Println(v)
	}
	// Output:
	// columnar
	// coo
	// csr
	// dist
	// distgo
	// extsort
	// graphblas
}

package pipeline_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestColdRunAllocBudget pins the allocation volume of a whole cold run —
// csr over tsv files in a vfs.Mem, through core.RunOnce as the benchmark
// calls it — to 110 bytes per edge.  A run that touches each byte once
// allocates ~90 at this scale: the generated list (16 B/edge, reused as
// the decode target of kernels 1 and 2), the radix sort's second list
// (16), two tsv files (~12 each), the matrix and its transpose (~11 each)
// and the CSR scratch.  A doubling file buffer or a list allocated per
// decode puts it at 170, so either fails here, not in a benchmark.
func TestColdRunAllocBudget(t *testing.T) {
	cfg := core.Config{Scale: 14, Seed: 1, Variant: "csr", Format: "tsv", KeepRank: true}
	ctx := context.Background()
	if _, err := core.RunOnce(ctx, cfg); err != nil { // lazy set-up is not the run's
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := core.RunOnce(ctx, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	whole := after.TotalAlloc - before.TotalAlloc
	if perEdge := float64(whole) / float64(cfg.M()); perEdge > 110 {
		t.Errorf("cold csr/tsv run at scale %d allocated %.1f B/edge, budget 110", cfg.Scale, perEdge)
	}
	// The per-kernel records are the same counter read around each kernel:
	// all four are charged, and together for no more than the whole run.
	var kernels uint64
	for _, k := range res.Kernels {
		if k.AllocBytes == 0 {
			t.Errorf("%v: AllocBytes is 0", k.Kernel)
		}
		kernels += k.AllocBytes
	}
	if len(res.Kernels) != 4 || kernels > whole || kernels < whole*9/10 {
		t.Errorf("kernels report %d allocated bytes of the run's %d", kernels, whole)
	}
}

package pipeline_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/vfs"
)

// TestColdRunAllocBudget pins the allocation volume of a whole cold run —
// over tsv files in a vfs.Mem, through core.RunOnce as the benchmark calls
// it — to csr's budget of 110 bytes per edge.  A run that touches each
// byte once allocates ~90 at this scale: the generated list (16 B/edge,
// reused as kernel 1's decode target), the radix sort's second list (16),
// two tsv files (~12 each), the matrix reserved at M (12) and its
// transpose (~11); K0 and K1 write and read their stripes through rings
// of 2·GOMAXPROCS pieces, and kernel 2 reads the k1 stripes through such
// a ring of small pieces into no list.  A doubling file buffer or a list
// allocated per decode puts it at 170, so either fails here, not in a
// benchmark.
func TestColdRunAllocBudget(t *testing.T) {
	const variant, budget = "csr", 110
	cfg := core.Config{Scale: 14, Seed: 1, Variant: variant, Format: "tsv", KeepRank: true}
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
	if perEdge := float64(whole) / float64(cfg.M()); perEdge > budget {
		t.Errorf("cold %s/tsv run at scale %d allocated %.1f B/edge, budget %v", variant, cfg.Scale, perEdge, budget)
	}
	// The per-kernel records are the same counter read around each
	// kernel: all four are charged, and together for no more than the
	// whole run.
	var kernels uint64
	for _, k := range res.Kernels {
		if k.AllocBytes == 0 {
			t.Errorf("%s %v: AllocBytes is 0", variant, k.Kernel)
		}
		kernels += k.AllocBytes
	}
	if len(res.Kernels) != 4 || kernels > whole || kernels < whole*9/10 {
		t.Errorf("%s: kernels report %d allocated bytes of the run's %d", variant, kernels, whole)
	}
}

// TestKernel2AllocBudget pins kernel 2 alone — over tsv k1 stripes in a
// vfs.Mem, written by the same variant's kernels 0 and 1 — to 20 bytes
// per edge for every variant that streams the stripes into the matrix:
// Col+Val reserved at M (12), the row pointers, the filter's vectors and
// the ring's pieces.  A kernel 2 that decodes the whole list first
// allocates 16 more.
func TestKernel2AllocBudget(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"csr", "extsort"} {
		cfg := core.Config{Scale: 14, Seed: 1, Variant: name, Format: "tsv", FS: vfs.NewMem()}
		if _, err := core.RunOnce(ctx, cfg, core.K0Generate, core.K1Sort); err != nil {
			t.Fatal(err)
		}
		res, err := core.RunOnce(ctx, cfg, core.K2Filter)
		if err != nil {
			t.Fatal(err)
		}
		k2 := res.KernelResultFor(core.K2Filter)
		if perEdge := float64(k2.AllocBytes) / float64(cfg.M()); perEdge > 20 {
			t.Errorf("%s: kernel 2 at scale %d allocated %.1f B/edge, budget 20", name, cfg.Scale, perEdge)
		}
	}
}

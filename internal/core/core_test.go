package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

func TestRunFacade(t *testing.T) {
	res, err := RunOnce(context.Background(), Config{Scale: 7, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != 4 {
		t.Fatalf("kernels = %d", len(res.Kernels))
	}
	if res.KernelResultFor(K3PageRank) == nil {
		t.Error("no K3 record")
	}
}

func TestRunKernelsFacade(t *testing.T) {
	fs := vfs.NewMem()
	cfg := Config{Scale: 6, Seed: 2, FS: fs}
	if _, err := RunOnce(context.Background(), cfg, K0Generate, K1Sort); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	if len(names) != 2 { // one k0 stripe, one k1 stripe
		t.Errorf("files after K0+K1: %v", names)
	}
}

func TestVariantsNonEmpty(t *testing.T) {
	vs := Variants()
	if len(vs) < 6 {
		t.Errorf("variants = %v", vs)
	}
}

func TestSizeTableFacade(t *testing.T) {
	rows := SizeTable(PaperScales, 0, 0)
	if len(rows) != 7 || rows[0].Scale != 16 {
		t.Errorf("size table = %+v", rows)
	}
}

func TestNewDirFSFacade(t *testing.T) {
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scale: 5, FS: d}
	if _, err := RunOnce(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDistModeValidated(t *testing.T) {
	if err := (Config{Scale: 6, DistMode: "mpi"}).Validate(); err == nil {
		t.Error("unknown DistMode accepted")
	}
	if err := (Config{Scale: 6, Variant: "distgo", DistMode: "sim"}).Validate(); err == nil {
		t.Error("retired DistMode sim accepted")
	}
	if err := (Config{Scale: 6, Variant: "distgo", DistMode: "goroutine"}).Validate(); err != nil {
		t.Errorf("valid DistMode rejected: %v", err)
	}
}

// TestWarmRunsShareOneTranspose: the gather variants read Aᵀ from the
// matrix cache, so the runs of one matrix transpose it once — the cold
// run that fills the entry builds and charges the shared copy, warm hits
// add nothing — and never once per run.
func TestWarmRunsShareOneTranspose(t *testing.T) {
	for _, variant := range []string{"csr", "extsort"} {
		svc := NewService()
		ctx := context.Background()
		cfg := Config{Scale: 8, Seed: 7, Variant: variant, KeepRank: true}
		cold, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s cold: %v", variant, err)
		}
		resident := svc.Stats().CacheMatrix.Bytes
		// The ordered transpose lists all N rows (4 B each), points into
		// the non-empty ones (8 B each, plus one) and holds every entry
		// (12 B); the matrix holds N+1 row pointers (8 B) and every entry
		// (12 B) at least.
		n, nnz := int64(1)<<cfg.Scale, int64(cold.NNZ)
		if least := 4*n + 8 + 12*nnz + 8*(n+1) + 12*nnz; resident < least {
			t.Fatalf("%s: %d resident bytes after the cold run, want the matrix and its transpose (>= %d)", variant, resident, least)
		}
		for i := 1; i <= 3; i++ {
			warm, err := svc.Run(ctx, cfg)
			if err != nil {
				t.Fatalf("%s warm %d: %v", variant, i, err)
			}
			if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
				t.Fatalf("%s warm %d: Cache = %+v, want a matrix hit", variant, i, warm.Cache)
			}
			sameBits(t, fmt.Sprintf("%s warm %d vs cold", variant, i), cold.Rank, warm.Rank)
			if got := svc.Stats().CacheMatrix.Bytes; got != resident {
				t.Fatalf("%s warm %d: %d resident bytes, want the cold run's %d", variant, i, got, resident)
			}
		}
		svc.Close()
	}
}

// TestColdServiceRunAllocatesLikeRunOnce: the cache holds the matrix
// alone, so a cold run behind a caching Service recycles its edge lists
// exactly as RunOnce does, and allocates the same bytes within 5 %.
func TestColdServiceRunAllocatesLikeRunOnce(t *testing.T) {
	cfg := Config{Scale: 14, Seed: 1, Variant: "csr", KeepRank: true}
	ctx := context.Background()
	allocated := func(res *Result) (sum uint64) {
		for _, k := range res.Kernels {
			sum += k.AllocBytes
		}
		return sum
	}
	if _, err := RunOnce(ctx, cfg); err != nil { // lazy set-up is not the run's
		t.Fatal(err)
	}
	once, err := RunOnce(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService()
	defer svc.Close()
	cached, err := svc.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Cache == nil || cached.Cache.Matrix.Misses != 1 {
		t.Fatalf("service run: cache record %+v, want a matrix miss", cached.Cache)
	}
	a, b := float64(allocated(once)), float64(allocated(cached))
	if b > 1.05*a || b < 0.95*a {
		t.Fatalf("cold run allocated %.1f B/edge behind a caching Service, %.1f through RunOnce",
			b/float64(cfg.M()), a/float64(cfg.M()))
	}
}

package core

import (
	"context"
	"fmt"
	"testing"
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
	fs := NewMemFS()
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

func TestPredictKernelsFacade(t *testing.T) {
	preds := PredictKernels(20)
	for i, p := range preds {
		if p.EdgesPerSecond <= 0 {
			t.Errorf("kernel %d prediction %v", i, p)
		}
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
	if err := (Config{Scale: 6, Variant: "distgo", DistMode: "sim"}).Validate(); err != nil {
		t.Errorf("valid DistMode rejected: %v", err)
	}
}

// TestWarmRunsShareOneTranspose: the gather variants that take part in
// the matrix stage read Aᵀ from the staged cache, so warm runs of one
// matrix transpose it once — the first hit builds and charges the shared
// copy, later hits add nothing — and never once per run.
func TestWarmRunsShareOneTranspose(t *testing.T) {
	for _, variant := range []string{"csr", "extsort"} {
		svc := NewService()
		ctx := context.Background()
		cfg := Config{Scale: 8, Seed: 7, Variant: variant, KeepRank: true}
		cold, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s cold: %v", variant, err)
		}
		matrix := svc.Stats().CacheMatrix.Bytes
		// The ordered transpose lists all N rows (4 B each), points into
		// the non-empty ones (8 B each, plus one) and holds every entry
		// (12 B); the first hit fixes how many rows are non-empty.
		n, nnz := int64(1)<<cfg.Scale, int64(cold.NNZ)
		var transpose int64
		for i := 1; i <= 3; i++ {
			warm, err := svc.Run(ctx, cfg)
			if err != nil {
				t.Fatalf("%s warm %d: %v", variant, i, err)
			}
			if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
				t.Fatalf("%s warm %d: Cache = %+v, want a matrix hit", variant, i, warm.Cache)
			}
			sameBits(t, fmt.Sprintf("%s warm %d vs cold", variant, i), cold.Rank, warm.Rank)
			if i == 1 {
				transpose = svc.Stats().CacheMatrix.Bytes - matrix
				if transpose < 4*n+8+12*nnz || transpose > 12*n+8+12*nnz {
					t.Fatalf("%s: first hit charged %d bytes for Aᵀ, want an ordered transpose of %d rows and %d entries", variant, transpose, n, nnz)
				}
			}
			if got := svc.Stats().CacheMatrix.Bytes; got != matrix+transpose {
				t.Fatalf("%s warm %d: %d resident matrix-stage bytes, want matrix %d + one shared transpose %d",
					variant, i, got, matrix, transpose)
			}
		}
		svc.Close()
	}
}

package pipeline

// Tests for the cache seam (Config.MatrixSource): the lease/fill
// protocol, the kernel-skipping on hits, the metering, cross-variant
// artifact exchange, and the abort-fill guarantee on failed runs.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sparse"
	"repro/internal/vfs"
)

// captureMatrix runs variant cold with a miss-only MatrixSource and
// returns the deposited kernel-2 artifact and pre-filter mass.
func captureMatrix(t *testing.T, variant string) (*sparse.CSR, float64) {
	t.Helper()
	var gotM *sparse.CSR
	var gotMass float64
	cfg := smallCfg(variant)
	cfg.MatrixSource = func(Config) (MatrixLease, error) {
		return MatrixLease{Fill: func(m *sparse.CSR, mass float64, err error) {
			if err != nil {
				t.Fatalf("matrix fill delivered error: %v", err)
			}
			gotM, gotMass = m, mass
		}}, nil
	}
	if _, err := ExecuteContext(context.Background(), cfg); err != nil {
		t.Fatalf("%s cold: %v", variant, err)
	}
	if gotM == nil {
		t.Fatalf("%s: matrix fill never discharged", variant)
	}
	return gotM, gotMass
}

// TestMatrixSourceHitIsK3Bound pins the deepest warm path: a matrix hit
// runs kernel 3 only, writes nothing to storage, and reproduces the
// cold ranks bit for bit.
func TestMatrixSourceHitIsK3Bound(t *testing.T) {
	cold, err := ExecuteContext(context.Background(), smallCfg("csr"))
	if err != nil {
		t.Fatal(err)
	}
	m, mass := captureMatrix(t, "csr")
	cfg := smallCfg("csr")
	cfg.FS = vfs.NewMem()
	cfg.MatrixSource = func(Config) (MatrixLease, error) {
		return MatrixLease{Matrix: m, Mass: mass, Hit: true}, nil
	}
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != 1 || res.Kernels[0].Kernel != K3PageRank {
		t.Fatalf("warm matrix run executed %v, want [K3]", res.Kernels)
	}
	if res.Cache == nil || res.Cache.Matrix.Hits != 1 {
		t.Fatalf("Cache = %+v, want 1 matrix hit", res.Cache)
	}
	if res.MatrixMass != cold.MatrixMass || res.NNZ != cold.NNZ {
		t.Fatalf("warm Result incomplete: NNZ %d/%d mass %v/%v", res.NNZ, cold.NNZ, res.MatrixMass, cold.MatrixMass)
	}
	// A K3-bound run must leave no kernel-0/1 artifacts (or anything
	// else) in storage.
	if names, err := cfg.FS.List(); err != nil || len(names) > 0 {
		t.Fatalf("warm run wrote files: %v (err %v)", names, err)
	}
	assertRanksEqual(t, "csr matrix-warm", cold.Rank, res.Rank)
}

// TestMatrixArtifactCanonicalAcrossVariants pins the contract the
// matrix stage's key relies on: every variant deposits a
// bit-identical kernel-2 matrix, and any variant warm-started from it
// reproduces its own cold ranks bit for bit.
func TestMatrixArtifactCanonicalAcrossVariants(t *testing.T) {
	ref, refMass := captureMatrix(t, "csr")
	producers := []string{"coo", "columnar", "graphblas", "extsort", "dist", "distgo", "distext"}
	for _, variant := range producers {
		m, mass := captureMatrix(t, variant)
		if mass != refMass {
			t.Fatalf("%s: mass %v != csr %v", variant, mass, refMass)
		}
		if !csrEqual(m, ref) {
			t.Fatalf("%s: kernel-2 matrix not bit-identical to csr's", variant)
		}
	}
	consumers := []string{"coo", "columnar", "graphblas", "extsort", "dist", "distgo", "distext"}
	for _, variant := range consumers {
		cold, err := ExecuteContext(context.Background(), smallCfg(variant))
		if err != nil {
			t.Fatalf("%s cold: %v", variant, err)
		}
		cfg := smallCfg(variant)
		cfg.MatrixSource = func(Config) (MatrixLease, error) {
			return MatrixLease{Matrix: ref, Mass: refMass, Hit: true}, nil
		}
		warm, err := ExecuteContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s warm: %v", variant, err)
		}
		assertRanksEqual(t, variant+" cross-variant warm", cold.Rank, warm.Rank)
	}
}

// TestStageSourceBypassVariants pins that no variant bypasses the
// matrix cache: every registered variant (and the out-of-core dist
// configuration) consults MatrixSource once when kernel 2 is scheduled
// and, on a miss, deposits its kernel-2 matrix; with kernel 2
// unscheduled, none consults it.
func TestStageSourceBypassVariants(t *testing.T) {
	for _, name := range sweepLabels() {
		for _, ks := range [][]Kernel{
			{K0Generate, K1Sort, K2Filter, K3PageRank},
			{K0Generate, K1Sort},
		} {
			consulted, filled := 0, 0
			cfg := smallCfg(name)
			cfg.MatrixSource = func(Config) (MatrixLease, error) {
				consulted++
				return MatrixLease{Fill: func(m *sparse.CSR, _ float64, err error) {
					if m != nil && err == nil {
						filled++
					}
				}}, nil
			}
			if _, err := ExecuteKernelsContext(context.Background(), cfg, ks); err != nil {
				t.Fatalf("%s %v: %v", name, ks, err)
			}
			want := 0
			if len(ks) == 4 {
				want = 1
			}
			if consulted != want || filled != want {
				t.Fatalf("%s %v: MatrixSource consulted %d times, filled %d; want %d", name, ks, consulted, filled, want)
			}
		}
	}
}

// TestCancelDischargesFillObligations pins the no-poisoning guarantee's
// pipeline half: a run cancelled before kernel 2 completes discharges
// its fill obligation exactly once, with the run's error — never with a
// fabricated artifact.  Cancelling at kernel 1's start lets kernel 1
// complete; the boundary check before kernel 2 then aborts the run.
func TestCancelDischargesFillObligations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var matrixErrs []error
	cfg := smallCfg("csr")
	cfg.MatrixSource = func(Config) (MatrixLease, error) {
		return MatrixLease{Fill: func(m *sparse.CSR, _ float64, err error) {
			if m != nil {
				t.Error("cancelled run deposited a matrix artifact")
			}
			matrixErrs = append(matrixErrs, err)
		}}, nil
	}
	cfg.Progress = func(ev Event) {
		if ev.Kind == EventKernelStart && ev.Kernel == K1Sort {
			cancel()
		}
	}
	if _, err := ExecuteKernelsContext(ctx, cfg, []Kernel{K0Generate, K1Sort, K2Filter, K3PageRank}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(matrixErrs) != 1 || !errors.Is(matrixErrs[0], context.Canceled) {
		t.Fatalf("matrix fill discharged %v, want one context.Canceled", matrixErrs)
	}
}

// TestStageSourcesDroppedFromResultConfig extends the closure-stripping
// contract to the cache and fabric seams.
func TestStageSourcesDroppedFromResultConfig(t *testing.T) {
	cfg := smallCfg("csr")
	cfg.MatrixSource = func(Config) (MatrixLease, error) {
		return MatrixLease{Fill: func(*sparse.CSR, float64, error) {}}, nil
	}
	cfg.FabricSource = func(int) (FabricLease, error) { return FabricLease{}, nil }
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.MatrixSource != nil || res.Config.FabricSource != nil {
		t.Fatal("Result.Config retains the cache and fabric closures")
	}
}

// TestStageSourceErrorsSurface pins the cache seam's failure path.
func TestStageSourceErrorsSurface(t *testing.T) {
	boom := errors.New("cache down")
	cfg := smallCfg("csr")
	cfg.MatrixSource = func(Config) (MatrixLease, error) { return MatrixLease{}, boom }
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, boom) {
		t.Fatalf("matrix source error lost: %v", err)
	}
}

// assertRanksEqual fails unless the two rank vectors are bit-for-bit
// identical.
func assertRanksEqual(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: rank length %d != %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: rank[%d] = %v != %v (not bit-identical)", what, i, got[i], want[i])
		}
	}
}

// csrEqual reports bit-for-bit equality of two CSR matrices.
func csrEqual(a, b *sparse.CSR) bool {
	if a.N != b.N || len(a.RowPtr) != len(b.RowPtr) ||
		len(a.Col) != len(b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			return false
		}
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

package pipeline

// Tests for the staged-cache seams (Config.SortedSource and
// Config.MatrixSource): the lease/fill protocol, the kernel-skipping on
// hits, the per-stage metering, cross-variant artifact exchange, and
// the abort-fill guarantee on failed runs.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/edge"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

// captureSorted runs variant cold with a miss-only SortedSource and
// returns the deposited kernel-1 artifact.
func captureSorted(t *testing.T, variant string) *edge.List {
	t.Helper()
	var got *edge.List
	cfg := smallCfg(variant)
	cfg.SortedSource = func(Config) (SortedLease, error) {
		return SortedLease{Fill: func(l *edge.List, err error) {
			if err != nil {
				t.Fatalf("sorted fill delivered error: %v", err)
			}
			got = l
		}}, nil
	}
	if _, err := ExecuteContext(context.Background(), cfg); err != nil {
		t.Fatalf("%s cold: %v", variant, err)
	}
	if got == nil {
		t.Fatalf("%s: sorted fill never discharged", variant)
	}
	return got
}

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

// TestSortedSourceHitSkipsK0K1 pins the sorted stage's warm path: a hit
// runs only kernels 2 and 3, meters one sorted hit, and reproduces the
// cold run bit for bit.
func TestSortedSourceHitSkipsK0K1(t *testing.T) {
	cold, err := ExecuteContext(context.Background(), smallCfg("csr"))
	if err != nil {
		t.Fatal(err)
	}
	shared := captureSorted(t, "csr")
	cfg := smallCfg("csr")
	cfg.SortedSource = func(Config) (SortedLease, error) {
		return SortedLease{List: shared, Hit: true}, nil
	}
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != 2 || res.Kernels[0].Kernel != K2Filter || res.Kernels[1].Kernel != K3PageRank {
		t.Fatalf("warm sorted run executed %v, want [K2 K3]", res.Kernels)
	}
	if res.Cache == nil || res.Cache.Sorted.Hits != 1 || res.Cache.Sorted.Misses != 0 {
		t.Fatalf("Cache = %+v, want 1 sorted hit", res.Cache)
	}
	if res.Cache.Edges != (StageCacheStats{}) {
		t.Fatalf("edges stage consulted on a sorted hit: %+v", res.Cache.Edges)
	}
	if res.NNZ != cold.NNZ || res.MatrixMass != cold.MatrixMass {
		t.Fatalf("warm matrix diverged: NNZ %d/%d mass %v/%v", res.NNZ, cold.NNZ, res.MatrixMass, cold.MatrixMass)
	}
	assertRanksEqual(t, "csr sorted-warm", cold.Rank, res.Rank)
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
	sortedConsulted := false
	cfg.SortedSource = func(Config) (SortedLease, error) {
		sortedConsulted = true
		return SortedLease{}, nil
	}
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sortedConsulted {
		t.Fatal("sorted stage consulted after a matrix hit")
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
// matrix stage's key relies on: every participating variant deposits a
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

// TestSortedArtifactCrossVariant pins the sorted stage's exchange rule:
// the by-u artifact one variant deposits warm-starts another, with the
// consumer's ranks bit-identical to its own cold run.
func TestSortedArtifactCrossVariant(t *testing.T) {
	shared := captureSorted(t, "csr")
	for _, variant := range []string{"coo", "graphblas", "dist", "distgo"} {
		cold, err := ExecuteContext(context.Background(), smallCfg(variant))
		if err != nil {
			t.Fatalf("%s cold: %v", variant, err)
		}
		cfg := smallCfg(variant)
		cfg.SortedSource = func(Config) (SortedLease, error) {
			return SortedLease{List: shared, Hit: true}, nil
		}
		warm, err := ExecuteContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s warm: %v", variant, err)
		}
		assertRanksEqual(t, variant+" sorted cross-variant", cold.Rank, warm.Rank)
	}
}

// TestRecycledListsFilledListLeavesTheRun: with a SortedSource but no
// Source, kernel 0's list is the run's own, kernel 1 decodes into it and
// sorts it in place — and then deposits that very list.  From the deposit
// on it is the cache's: kernel 2 must decode into another, which columnar's
// kernel 2 (it filters its input in place) would otherwise show.
func TestRecycledListsFilledListLeavesTheRun(t *testing.T) {
	for _, variant := range []string{"csr", "columnar", "dist"} {
		deposited := captureSorted(t, variant) // the whole run has finished
		want, err := GenerateEdges(smallCfg(variant))
		if err != nil {
			t.Fatal(err)
		}
		if variant == "columnar" {
			xsort.RadixByUV(want)
		} else {
			xsort.RadixByU(want)
		}
		if !deposited.Equal(want) {
			t.Errorf("%s: the deposited sorted list (%d edges) was written to after the deposit; want kernel 1's %d-edge output",
				variant, deposited.Len(), want.Len())
		}
	}
}

// TestSortedSourceSeesEffectiveOrder pins the key-correctness rule for
// the order dimension: the columnar variant always sorts by (u, v), so
// its SortedSource hook must observe SortEndVertices == true even when
// the run's Config left it false.
func TestSortedSourceSeesEffectiveOrder(t *testing.T) {
	for _, tc := range []struct {
		variant string
		set     bool
		want    bool
	}{
		{"csr", false, false},
		{"csr", true, true},
		{"columnar", false, true},
		{"columnar", true, true},
	} {
		var saw *bool
		cfg := smallCfg(tc.variant)
		cfg.SortEndVertices = tc.set
		cfg.SortedSource = func(scfg Config) (SortedLease, error) {
			saw = &scfg.SortEndVertices
			return SortedLease{Fill: func(*edge.List, error) {}}, nil
		}
		if _, err := ExecuteContext(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", tc.variant, err)
		}
		if saw == nil || *saw != tc.want {
			t.Fatalf("%s (SortEndVertices=%v): hook saw %v, want %v", tc.variant, tc.set, saw, tc.want)
		}
	}
}

// TestStageSourceBypassVariants pins the participation matrix: the
// extsort variant never consults the sorted stage (no exchangeable
// kernel-1 list) but exchanges the canonical matrix, and the parallel
// variant consults no stage at all — its jump-stream generation has a
// per-worker-count identity GraphKey does not capture.
func TestStageSourceBypassVariants(t *testing.T) {
	for _, tc := range []struct {
		variant    string
		wantMatrix bool
	}{
		{"extsort", true},
		{"parallel", false},
	} {
		matrixSeen := false
		cfg := smallCfg(tc.variant)
		cfg.SortedSource = func(Config) (SortedLease, error) {
			t.Fatalf("%s: SortedSource must not be consulted", tc.variant)
			return SortedLease{}, nil
		}
		cfg.MatrixSource = func(Config) (MatrixLease, error) {
			matrixSeen = true
			return MatrixLease{Fill: func(*sparse.CSR, float64, error) {}}, nil
		}
		if _, err := ExecuteContext(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", tc.variant, err)
		}
		if matrixSeen != tc.wantMatrix {
			t.Fatalf("%s: MatrixSource consulted = %v, want %v", tc.variant, matrixSeen, tc.wantMatrix)
		}
	}
}

// TestCancelDischargesFillObligations pins the no-poisoning guarantee's
// pipeline half: a cancelled run discharges every fill obligation
// exactly once — with the completed artifact for a kernel that finished
// before the cancellation point (work already done is shared), and with
// the run's error for a kernel that never ran, never with a fabricated
// artifact.  Cancelling at kernel 1's start lets kernel 1 complete (the
// boundary check runs before kernel 2), so the sorted fill succeeds and
// the matrix fill aborts.
func TestCancelDischargesFillObligations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sortedLists []*edge.List
	var sortedErrs, matrixErrs []error
	cfg := smallCfg("csr")
	cfg.SortedSource = func(Config) (SortedLease, error) {
		return SortedLease{Fill: func(l *edge.List, err error) {
			sortedLists = append(sortedLists, l)
			sortedErrs = append(sortedErrs, err)
		}}, nil
	}
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
	if len(sortedErrs) != 1 || sortedErrs[0] != nil || sortedLists[0] == nil {
		t.Fatalf("sorted fill: lists %v errs %v, want one completed artifact", sortedLists, sortedErrs)
	}
}

// TestStageSourcesDroppedFromResultConfig extends the closure-stripping
// contract to the staged-cache seams.
func TestStageSourcesDroppedFromResultConfig(t *testing.T) {
	cfg := smallCfg("csr")
	cfg.SortedSource = func(Config) (SortedLease, error) {
		return SortedLease{Fill: func(*edge.List, error) {}}, nil
	}
	cfg.MatrixSource = func(Config) (MatrixLease, error) {
		return MatrixLease{Fill: func(*sparse.CSR, float64, error) {}}, nil
	}
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.SortedSource != nil || res.Config.MatrixSource != nil {
		t.Fatal("Result.Config retains the staged-cache closures")
	}
}

// TestStageSourceErrorsSurface pins the failure path of both new seams.
func TestStageSourceErrorsSurface(t *testing.T) {
	boom := errors.New("cache down")
	cfg := smallCfg("csr")
	cfg.MatrixSource = func(Config) (MatrixLease, error) { return MatrixLease{}, boom }
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, boom) {
		t.Fatalf("matrix source error lost: %v", err)
	}
	cfg = smallCfg("csr")
	cfg.SortedSource = func(Config) (SortedLease, error) { return SortedLease{}, boom }
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, boom) {
		t.Fatalf("sorted source error lost: %v", err)
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

package pipeline

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/vfs"
)

// smallCfg returns a quick configuration for variant v.  The label
// "distext" names the out-of-core distributed configuration: the dist
// variant with kernel 1 spilling M/8-edge runs.
func smallCfg(v string) Config {
	cfg := Config{Scale: 7, EdgeFactor: 8, Seed: 42, NFiles: 3, Variant: v, KeepRank: true}
	if v == "distext" {
		cfg.Variant, cfg.RunEdges = "dist", int(cfg.M()/8)
	}
	return cfg
}

// sweepLabels is every registered variant plus the out-of-core
// distributed configuration ("distext", see smallCfg).
func sweepLabels() []string { return append(VariantNames(), "distext") }

func TestVariantRegistryComplete(t *testing.T) {
	want := []string{"columnar", "coo", "csr", "dist", "distgo", "extsort", "graphblas"}
	got := VariantNames()
	if len(got) != len(want) {
		t.Fatalf("variants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("variants = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		v, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if v.Name() != name || v.Description() == "" {
			t.Errorf("variant %q: bad Name/Description", name)
		}
	}
	if _, err := Lookup("fortran"); err == nil {
		t.Error("Lookup of unknown variant succeeded")
	}
}

func TestKernelString(t *testing.T) {
	if K0Generate.String() != "kernel0-generate" || K3PageRank.String() != "kernel3-pagerank" {
		t.Error("kernel names wrong")
	}
	if !strings.Contains(Kernel(9).String(), "?") {
		t.Error("unknown kernel should stringify defensively")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Scale: 0},
		{Scale: 99},
		{Scale: 8, Variant: "nope"},
		{Scale: 8, Generator: "mystery"},
		{Scale: 8, PageRank: pagerank.Options{Damping: 7}},
		// A negative run budget would silently pick the dist variants'
		// in-memory sort (and extsort's default): neither reads it.
		{Scale: 8, Variant: "dist", RunEdges: -1},
		{Scale: 8, Variant: "extsort", RunEdges: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := (Config{Scale: 8}).Validate(); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestConfigDerived(t *testing.T) {
	c := Config{Scale: 10}
	if c.N() != 1024 {
		t.Errorf("N = %d", c.N())
	}
	if c.M() != 16384 {
		t.Errorf("M = %d (default edge factor must be 16)", c.M())
	}
}

func TestFullPipelineEveryVariant(t *testing.T) {
	for _, name := range sweepLabels() {
		t.Run(name, func(t *testing.T) {
			res, err := ExecuteContext(context.Background(), smallCfg(name))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Kernels) != 4 {
				t.Fatalf("ran %d kernels", len(res.Kernels))
			}
			cfg := res.Config
			m := cfg.M()
			for _, kr := range res.Kernels {
				wantEdges := m
				if kr.Kernel == K3PageRank {
					wantEdges = 20 * m
				}
				if kr.Edges != wantEdges {
					t.Errorf("%v: edges = %d, want %d", kr.Kernel, kr.Edges, wantEdges)
				}
				if kr.EdgesPerSecond <= 0 {
					t.Errorf("%v: rate = %v", kr.Kernel, kr.EdgesPerSecond)
				}
			}
			// Paper invariant: matrix mass before filtering equals M.
			if res.MatrixMass != float64(m) {
				t.Errorf("matrix mass %v, want %d", res.MatrixMass, m)
			}
			if res.NNZ <= 0 || uint64(res.NNZ) >= m {
				t.Errorf("NNZ = %d, want (0, M)", res.NNZ)
			}
			if res.RankIterations != 20 {
				t.Errorf("rank iterations = %d", res.RankIterations)
			}
			if len(res.Rank) != int(cfg.N()) {
				t.Fatalf("rank length %d", len(res.Rank))
			}
			for i, x := range res.Rank {
				if x < 0 || math.IsNaN(x) {
					t.Fatalf("rank[%d] = %v", i, x)
				}
			}
		})
	}
}

// serialVariants share the serial Kronecker generation and therefore must
// produce the exact same filtered matrix and (up to FP reassociation) the
// same rank vector.
var serialVariants = []string{"csr", "coo", "columnar", "graphblas", "extsort"}

func TestSerialVariantsAgreeExactly(t *testing.T) {
	ranks := map[string][]float64{}
	nnz := map[string]int{}
	for _, name := range serialVariants {
		res, err := ExecuteContext(context.Background(), smallCfg(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ranks[name] = res.Rank
		nnz[name] = res.NNZ
	}
	ref := ranks["csr"]
	for _, name := range serialVariants[1:] {
		if nnz[name] != nnz["csr"] {
			t.Errorf("%s NNZ %d != csr %d", name, nnz[name], nnz["csr"])
		}
		for i := range ref {
			if math.Abs(ranks[name][i]-ref[i]) > 1e-9 {
				t.Fatalf("%s rank[%d] = %v, csr = %v", name, i, ranks[name][i], ref[i])
			}
		}
	}
}

func TestKernelsRunIndependently(t *testing.T) {
	// The paper: kernels "can be run together or independently".  Run each
	// kernel in its own ExecuteKernels call against a shared FS.
	fs := vfs.NewMem()
	cfg := smallCfg("csr")
	cfg.FS = fs
	for _, k := range []Kernel{K0Generate, K1Sort, K2Filter} {
		if _, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{k}); err != nil {
			t.Fatalf("kernel %v standalone: %v", k, err)
		}
	}
	// K3 alone needs K2's in-memory matrix, so run K2+K3 together.
	res, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K2Filter, K3PageRank})
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelResultFor(K3PageRank) == nil {
		t.Error("missing K3 result")
	}
}

func TestKernel1WithoutKernel0Fails(t *testing.T) {
	cfg := smallCfg("csr")
	cfg.FS = vfs.NewMem()
	if _, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K1Sort}); err == nil {
		t.Error("K1 without K0 artifacts should fail")
	}
}

func TestSortedEndVerticesAblation(t *testing.T) {
	for _, name := range []string{"csr", "coo", "extsort", "dist", "distext"} {
		cfg := smallCfg(name)
		cfg.SortEndVertices = true
		res, err := ExecuteContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Same matrix regardless of secondary sort order.
		base, err := ExecuteContext(context.Background(), smallCfg(name))
		if err != nil {
			t.Fatal(err)
		}
		if res.NNZ != base.NNZ {
			t.Errorf("%s: NNZ changed with SortEndVertices: %d vs %d", name, res.NNZ, base.NNZ)
		}
	}
}

func TestAlternativeGenerators(t *testing.T) {
	for _, gen := range []GeneratorKind{GenPPL, GenER} {
		for _, name := range []string{"csr", "extsort"} {
			cfg := smallCfg(name)
			cfg.Generator = gen
			res, err := ExecuteContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", gen, name, err)
			}
			if res.MatrixMass != float64(cfg.M()) {
				t.Errorf("%s/%s: mass %v != M %d", gen, name, res.MatrixMass, cfg.M())
			}
		}
	}
}

func TestRankMatchesEigenEndToEnd(t *testing.T) {
	// Full pipeline then the paper's dense validation at small scale.
	cfg := Config{Scale: 6, EdgeFactor: 8, Seed: 7, Variant: "csr", KeepRank: true,
		PageRank: pagerank.Options{Iterations: 150}}
	fs := vfs.NewMem()
	cfg.FS = fs
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the matrix exactly as K2 left it for the eigen check.
	runRes, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K2Filter})
	if err != nil {
		t.Fatal(err)
	}
	_ = runRes
	// Reconstruct via a fresh run to get the matrix handle.
	v, _ := Lookup("csr")
	run := &Run{Cfg: cfg.withDefaults(), FS: fs}
	if err := v.Kernel2(run); err != nil {
		t.Fatal(err)
	}
	diff, err := pagerank.CompareWithEigen(res.Rank, run.Matrix, pagerank.EigenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-6 {
		t.Errorf("end-to-end rank differs from dominant eigenvector by %v", diff)
	}
}

func TestGraphBLASKernel3AcceptsForeignMatrix(t *testing.T) {
	// Mixed-kernel ablation: csr does K0-K2, graphblas does K3.
	fs := vfs.NewMem()
	cfg := smallCfg("csr")
	cfg.FS = fs
	csr, _ := Lookup("csr")
	gb, _ := Lookup("graphblas")
	run := &Run{Cfg: cfg.withDefaults(), FS: fs}
	for _, step := range []func(*Run) error{csr.Kernel0, csr.Kernel1, csr.Kernel2, gb.Kernel3} {
		if err := step(run); err != nil {
			t.Fatal(err)
		}
	}
	if run.Rank == nil || len(run.Rank.Rank) != int(cfg.N()) {
		t.Fatal("mixed-variant pipeline produced no rank")
	}
}

func TestApplyKernel2FilterSemantics(t *testing.T) {
	// Hand graph: vertex 3 is the super-node (din 3), vertex 4 is a leaf
	// target (din 1).
	rows := []int{0, 1, 2, 0, 1}
	cols := []int{3, 3, 3, 4, 2}
	vals := []float64{1, 1, 1, 1, 1}
	a, err := sparse.FromTriplets(5, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	st := ApplyKernel2Filter(a)
	if st.MaxInDegree != 3 {
		t.Errorf("MaxInDegree = %v", st.MaxInDegree)
	}
	if st.SuperNodeColumns != 1 {
		t.Errorf("SuperNodeColumns = %d", st.SuperNodeColumns)
	}
	// Columns with din == 1: vertex 4 (din 1) and vertex 2 (din 1).
	if st.LeafColumns != 2 {
		t.Errorf("LeafColumns = %d", st.LeafColumns)
	}
	if st.EntriesZeroed != 5 {
		t.Errorf("EntriesZeroed = %d", st.EntriesZeroed)
	}
	if a.NNZ() != 0 {
		t.Errorf("this graph should be fully filtered; NNZ = %d", a.NNZ())
	}
}

func TestFilterNormalizesRows(t *testing.T) {
	// Graph with survivors: two parallel targets so din == 2 columns stay.
	rows := []int{0, 1, 0, 1, 2}
	cols := []int{2, 2, 3, 3, 3}
	a, _ := sparse.FromTriplets(4, rows, cols, []float64{1, 1, 1, 1, 1})
	ApplyKernel2Filter(a)
	// din: col2=2, col3=3(max→zeroed). Survivors: column 2.
	dout := a.OutDegrees()
	for i, d := range dout {
		if d != 0 && math.Abs(d-1) > 1e-12 {
			t.Errorf("row %d sum %v after normalize", i, d)
		}
	}
}

func TestSizeTablePaperValues(t *testing.T) {
	rows := SizeTable(PaperScales, 0, 0)
	want := []struct {
		vertices, edges, mem string
	}{
		{"65K", "1M", "25MB"},
		{"131K", "2M", "50MB"},
		{"262K", "4M", "100MB"},
		{"524K", "8M", "201MB"},
		{"1M", "16M", "402MB"},
		{"2M", "33M", "805MB"},
		{"4M", "67M", "1.6GB"},
	}
	for i, w := range want {
		r := rows[i]
		if HumanCount(r.MaxVertices) != w.vertices {
			t.Errorf("scale %d vertices = %s, want %s", r.Scale, HumanCount(r.MaxVertices), w.vertices)
		}
		if HumanCount(r.MaxEdges) != w.edges {
			t.Errorf("scale %d edges = %s, want %s", r.Scale, HumanCount(r.MaxEdges), w.edges)
		}
		if HumanBytes(r.MemoryBytes) != w.mem {
			t.Errorf("scale %d memory = %s, want %s", r.Scale, HumanBytes(r.MemoryBytes), w.mem)
		}
	}
}

func TestSizeTableStatedBytes(t *testing.T) {
	rows := SizeTable([]int{22}, 16, BytesPerEdgeStated)
	if rows[0].MemoryBytes != 67108864*16 {
		t.Errorf("stated-bytes memory = %d", rows[0].MemoryBytes)
	}
}

func TestHumanFormatsSmall(t *testing.T) {
	if HumanBytes(512) != "512B" || HumanBytes(2048) != "2KB" {
		t.Error("HumanBytes small values")
	}
	if HumanCount(999) != "999" || HumanCount(2e9) != "2G" {
		t.Error("HumanCount extremes")
	}
}

func TestExtsortSmallRunBuffer(t *testing.T) {
	// Force many external runs; results must match the in-memory variant.
	cfg := smallCfg("extsort")
	cfg.RunEdges = 100 // 1024 edges → ~10 runs
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ExecuteContext(context.Background(), smallCfg("csr"))
	if err != nil {
		t.Fatal(err)
	}
	if res.NNZ != ref.NNZ {
		t.Errorf("extsort NNZ %d != csr %d", res.NNZ, ref.NNZ)
	}
	for i := range ref.Rank {
		if math.Abs(res.Rank[i]-ref.Rank[i]) > 1e-9 {
			t.Fatalf("extsort rank diverges at %d", i)
		}
	}
}

// TestGatherKernel3WorkerInvariance: csr's and extsort's kernel 3 runs on
// a Config.Workers-wide gather team, and the rank bits must not depend on
// its width, with the dangling correction off or on.
func TestGatherKernel3WorkerInvariance(t *testing.T) {
	for _, variant := range []string{"csr", "extsort"} {
		for _, dangling := range []bool{false, true} {
			var want []float64
			for _, workers := range []int{1, 2, 3, 8} {
				cfg := smallCfg(variant)
				cfg.Workers = workers
				cfg.PageRank.Dangling = dangling
				res, err := ExecuteContext(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s, dangling %v, %d workers: %v", variant, dangling, workers, err)
				}
				if want == nil {
					want = res.Rank
					continue
				}
				for i := range want {
					if math.Float64bits(res.Rank[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, dangling %v: %d workers give rank[%d] = %v, one worker %v", variant, dangling, workers, i, res.Rank[i], want[i])
					}
				}
			}
		}
	}
}

func TestDiskBackedPipeline(t *testing.T) {
	// The realistic storage path: everything through an OS temp dir.
	dir, err := vfs.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg("csr")
	cfg.FS = dir
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatrixMass != float64(cfg.M()) {
		t.Errorf("disk-backed mass %v", res.MatrixMass)
	}
	names, err := dir.List()
	if err != nil {
		t.Fatal(err)
	}
	// k0 and k1 stripes must exist on disk.
	var k0, k1 int
	for _, n := range names {
		if strings.HasPrefix(n, "k0-") {
			k0++
		}
		if strings.HasPrefix(n, "k1-") {
			k1++
		}
	}
	if k0 != 3 || k1 != 3 {
		t.Errorf("disk files: k0=%d k1=%d, want 3 each (%v)", k0, k1, names)
	}
}

func TestKeepRankFalseDropsVector(t *testing.T) {
	cfg := smallCfg("csr")
	cfg.KeepRank = false
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank != nil {
		t.Error("rank retained despite KeepRank=false")
	}
	if res.RankIterations != 20 {
		t.Error("iterations not recorded")
	}
}

// TestKernel2HostileStripes writes the k1 stripes by hand and runs kernel 2
// alone over them.  A vertex ≥ N must fail every variant's kernel 2, and a
// list not sorted by u — within a stripe or across a stripe boundary —
// every kernel 2 that relies on the order; each error names kernel 2 (a
// panic fails the test binary).  The unsorted edges keep columns 1 and 4
// (in-degree 2), so they survive columnar's column filter.  Then
// kernel2HostilePieces puts bad edges where kernel 2's pieces begin.
func TestKernel2HostileStripes(t *testing.T) {
	sorting := []string{"csr", "extsort", "columnar"}
	cases := []struct {
		name    string
		stripes [][][2]uint64
		fail    []string
		want    string // in every error
	}{
		{"u out of range", [][][2]uint64{{{0, 1}, {1, 2}, {8, 3}}}, VariantNames(), "out of range"},
		{"v out of range", [][][2]uint64{{{0, 1}, {1, 9}, {2, 3}}}, VariantNames(), "out of range"},
		{"unsorted stripe", [][][2]uint64{{{5, 1}, {1, 1}, {2, 4}, {3, 4}, {4, 6}, {6, 6}, {7, 6}}}, sorting, "not sorted"},
		{"unsorted across stripes", [][][2]uint64{{{5, 1}}, {{1, 1}, {2, 4}, {3, 4}, {4, 6}, {6, 6}, {7, 6}}}, sorting, "not sorted"},
	}
	for _, tc := range cases {
		for _, name := range tc.fail {
			fs := vfs.NewMem()
			for i, stripe := range tc.stripes {
				var text strings.Builder
				for _, e := range stripe {
					fmt.Fprintf(&text, "%d\t%d\n", e[0], e[1])
				}
				w, err := fs.Create(fastio.StripeName("k1", fastio.TSV{}, i))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := io.WriteString(w, text.String()); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{Scale: 3, Seed: 1, Variant: name, Format: "tsv", FS: fs}
			_, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K2Filter})
			switch {
			case err == nil:
				t.Errorf("%s/%s: kernel 2 succeeded", tc.name, name)
			case !strings.Contains(err.Error(), K2Filter.String()) || !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s/%s: want a kernel 2 error with %q, got: %v", tc.name, name, tc.want, err)
			}
		}
	}
	kernel2HostilePieces(t)
}

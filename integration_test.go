package repro

// Cross-module integration tests: scenarios that span generation, storage,
// sorting, filtering, PageRank, distribution and validation together, the
// way a benchmark user would drive the system.

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fastio"
	"repro/internal/fastio/fastiotest"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

func TestIntegrationFullMatrixOfVariantsAndGenerators(t *testing.T) {
	for _, gen := range []pipeline.GeneratorKind{pipeline.GenKronecker, pipeline.GenPPL, pipeline.GenER} {
		for _, v := range core.Variants() {
			cfg := core.Config{Scale: 6, EdgeFactor: 8, Seed: 3, Variant: v, Generator: gen, KeepRank: true}
			res, err := core.RunOnce(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", gen, v, err)
			}
			if res.MatrixMass != float64(cfg.M()) {
				t.Errorf("%s/%s: mass %v != %d", gen, v, res.MatrixMass, cfg.M())
			}
			var sum float64
			for _, r := range res.Rank {
				sum += r
			}
			if sum <= 0 || sum > 1.000001 {
				t.Errorf("%s/%s: rank mass %v", gen, v, sum)
			}
		}
	}
}

func TestIntegrationVariantCrossProductMatrixIdentity(t *testing.T) {
	// Every serial variant's kernel 2 must produce the same matrix, bit
	// for bit, from the same kernel-1 files (shared FS, mixed variants;
	// the format is named so that coo reads csr's tsv, not naivetsv).
	fs := vfs.NewMem()
	cfg := core.Config{Scale: 7, EdgeFactor: 8, Seed: 11, Variant: "csr", Format: "tsv", FS: fs}
	if _, err := core.RunOnce(context.Background(), cfg, core.K0Generate, core.K1Sort); err != nil {
		t.Fatal(err)
	}
	var ref *pipeline.Run
	for _, name := range []string{"csr", "columnar", "graphblas", "extsort", "coo"} {
		v, err := pipeline.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		c2 := cfg
		c2.Variant = name
		run := &pipeline.Run{Cfg: c2, FS: fs}
		if err := v.Kernel2(run); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref == nil {
			ref = run
			continue
		}
		a, b := ref.Matrix, run.Matrix
		if b.N != a.N || !slices.Equal(b.RowPtr, a.RowPtr) || !slices.Equal(b.Col, a.Col) {
			t.Fatalf("%s: matrix structure differs from csr's", name)
		}
		if len(b.Val) != len(a.Val) {
			t.Fatalf("%s: %d values, csr has %d", name, len(b.Val), len(a.Val))
		}
		for k := range a.Val {
			if math.Float64bits(b.Val[k]) != math.Float64bits(a.Val[k]) {
				t.Fatalf("%s: value %d is %v, csr has %v", name, k, b.Val[k], a.Val[k])
			}
		}
		if math.Float64bits(run.MatrixMass) != math.Float64bits(ref.MatrixMass) {
			t.Fatalf("%s: matrix mass %v, csr has %v", name, run.MatrixMass, ref.MatrixMass)
		}
	}
}

func TestIntegrationDistributedSortFeedsDistributedPageRank(t *testing.T) {
	// K0 -> distributed sample sort (K1) -> distributed filter+PageRank
	// (K2+K3): the full parallel pipeline of the paper's analysis.
	kcfg := kronecker.New(9, 13)
	l, err := kronecker.Generate(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	k1, err := dist.Execute(context.Background(), dist.Spec{Op: dist.OpSort, Edges: l, Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	sorted := k1.Sort
	if !sorted.Sorted.IsSortedByU() {
		t.Fatal("distributed sort postcondition")
	}
	ran, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: sorted.Sorted, N: int(kcfg.N()), Procs: p, PageRank: pagerank.Options{Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := ran.Run
	// Serial reference from the same (unsorted) edges.
	a, err := sparse.FromEdges(l, int(kcfg.N()))
	if err != nil {
		t.Fatal(err)
	}
	pipeline.ApplyKernel2Filter(a)
	want, err := pagerank.Scatter(a, pagerank.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Rank {
		if math.Abs(res.Rank[i]-want.Rank[i]) > 1e-9 {
			t.Fatalf("distributed pipeline diverges at %d", i)
		}
	}
	if sorted.Comm.AllToAllBytes == 0 || res.Comm.AllReduceBytes == 0 {
		t.Error("communication not accounted across the distributed pipeline")
	}
}

func TestIntegrationStorageFailurePropagates(t *testing.T) {
	// A disk that dies mid-run must produce an error, not a wrong result.
	for _, budget := range []int64{0, 100, 10_000} {
		fs := vfs.NewFaulty(vfs.NewMem(), budget)
		cfg := core.Config{Scale: 8, Seed: 1, Variant: "csr", FS: fs}
		_, err := core.RunOnce(context.Background(), cfg)
		if err == nil {
			t.Fatalf("budget %d: pipeline succeeded on a failing disk", budget)
		}
		if !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("budget %d: error %v does not wrap the injected failure", budget, err)
		}
	}
}

func TestIntegrationStorageFailureInExternalSort(t *testing.T) {
	// The external sorter spills to storage; a mid-spill failure must
	// surface (budget sized to survive K0 but die during K1 spill).
	mem := vfs.NewMem()
	cfg := core.Config{Scale: 8, Seed: 1, Variant: "extsort", FS: mem, RunEdges: 128}
	if _, err := core.RunOnce(context.Background(), cfg, core.K0Generate); err != nil {
		t.Fatal(err)
	}
	k0Bytes := mem.TotalBytes()
	faulty := vfs.NewFaulty(mem, k0Bytes+k0Bytes/2) // dies partway through K1
	cfg.FS = faulty
	if _, err := core.RunOnce(context.Background(), cfg, core.K1Sort); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("external sort on failing disk: err = %v", err)
	}
}

func TestIntegrationGraph500DegreeSkewDrivesFilter(t *testing.T) {
	// The Kronecker graph's power-law skew is what gives kernel 2's
	// super-node elimination its bite; quantify the interaction.
	cfg := core.Config{Scale: 10, Seed: 4, Variant: "csr", KeepRank: true}
	fs := vfs.NewMem()
	cfg.FS = fs
	if _, err := core.RunOnce(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	l, err := fastio.ReadStriped(fs, "k1", fastio.TSV{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sparse.FromSortedEdges(l, int(cfg.N()))
	if err != nil {
		t.Fatal(err)
	}
	gini := giniCoefficient(a.InDegrees())
	if gini < 0.4 {
		t.Errorf("Kronecker in-degree Gini %v too uniform for the filter to matter", gini)
	}
	st := pipeline.ApplyKernel2Filter(a)
	if st.EntriesZeroed == 0 || st.LeafColumns == 0 || st.SuperNodeColumns == 0 {
		t.Errorf("filter removed nothing meaningful: %+v", st)
	}
}

// giniCoefficient measures the inequality of degrees in [0, 1]: 0 for
// uniform degrees, approaching 1 as a few hubs hold every edge.
func giniCoefficient(degrees []float64) float64 {
	sorted := slices.Sorted(slices.Values(degrees))
	var cum, total float64
	n := float64(len(sorted))
	for i, d := range sorted {
		cum += d * (2*float64(i+1) - n - 1)
		total += d
	}
	if total == 0 {
		return 0
	}
	return cum / (n * total)
}

func TestIntegrationExternalAndDistSortAgreeWithSerial(t *testing.T) {
	// Three independent sorting systems must agree on the sorted-by-U
	// projection of the same input.
	l, err := kronecker.Generate(kronecker.New(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	serial := l.Clone()
	xsort.RadixByU(serial)

	distOut, err := dist.Execute(context.Background(), dist.Spec{Op: dist.OpSort, Edges: l, Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	distRes := distOut.Sort
	extOut := serial.Clone()
	extOut.Reset()
	_, err = xsort.External(fastiotest.NewListSource(l), fastiotest.NewListSink(extOut),
		xsort.ExternalConfig{FS: vfs.NewMem(), RunEdges: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.U {
		if serial.U[i] != distRes.Sorted.U[i] || serial.U[i] != extOut.U[i] {
			t.Fatalf("sorters disagree on U at %d", i)
		}
	}
}

func TestIntegrationValidationCatchesTampering(t *testing.T) {
	// Corrupt the K1 files between kernels; validation must notice.
	fs := vfs.NewMem()
	cfg := core.Config{Scale: 6, EdgeFactor: 4, Seed: 5, Variant: "csr", FS: fs}
	// Run validation once to produce the files (passing).
	rep, err := pipeline.Validate(cfg)
	if err != nil || !rep.Passed {
		t.Fatalf("baseline validation failed: %v %+v", err, rep)
	}
	// Tamper: overwrite a k1 stripe with edges in descending order.
	w, err := fs.Create(fastio.StripeName("k1", fastio.TSV{}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("5\t1\n2\t1\n")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Re-read and check the postcondition directly (Validate regenerates
	// files, so check the artifact audit primitive instead).
	k1, err := fastio.ReadStriped(fs, "k1", fastio.TSV{})
	if err != nil {
		t.Fatal(err)
	}
	if k1.IsSortedByU() {
		t.Error("tampered files still look sorted — audit is vacuous")
	}
}

func TestIntegrationHumanReportRendering(t *testing.T) {
	// End-to-end: results rendered through every output format.
	res, err := core.RunOnce(context.Background(), core.Config{Scale: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	rows := core.SizeTable(core.PaperScales, 0, 0)
	if pipeline.HumanCount(rows[0].MaxVertices) != "65K" {
		t.Error("Table II rendering drifted from the paper")
	}
	if !strings.Contains(pipeline.K3PageRank.String(), "pagerank") {
		t.Error("kernel naming")
	}
}

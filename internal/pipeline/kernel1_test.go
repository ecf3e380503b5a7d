package pipeline

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/vfs"
)

// TestKernel1Invariance: kernel 1 is one stable sort, so over the same k0
// stripes every variant that runs it writes the same k1 bytes — csr,
// graphblas and extsort at every width in memory, at every run size out
// of core, by u and by (u, v); columnar equals csr by (u, v).  An out-of-core
// kernel 1 drops the run's spare list, an in-memory one sorts in it.  Over
// k0 stripes that span several decode and encode pieces (M = 81 920, whose
// three stripes end inside a piece), csr's in-memory kernel 1 decodes,
// sorts and encodes at every width to the 1-worker list and k1 bytes.
func TestKernel1Invariance(t *testing.T) {
	for _, format := range []string{"tsv", "bin", "packed"} {
		for _, nfiles := range []int{1, 3} {
			fs := vfs.NewMem()
			base := Config{Scale: 14, EdgeFactor: 5, Seed: 5, NFiles: nfiles, Format: format, Variant: "csr", FS: fs}.withDefaults()
			if err := (csrVariant{}).Kernel0(&Run{Cfg: base, FS: fs}); err != nil {
				t.Fatal(err)
			}
			var want uint64
			var wantList *edge.List
			for _, workers := range []int{1, 2, 3, 8} {
				cfg := base
				cfg.Workers = workers
				run := &Run{Cfg: cfg, FS: fs}
				if err := (csrVariant{}).Kernel1(run); err != nil {
					t.Fatal(err)
				}
				got := hashFiles(t, fs, "k1-")
				l, err := fastio.ReadStripedInto(fs, "k1", run.Codec(), nil, workers)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case workers == 1:
					want, wantList = got, l
				case got != want:
					t.Errorf("%s/%d files: k1 bytes at %d workers differ from 1 worker's", format, nfiles, workers)
				case !l.Equal(wantList) || !run.spare.Equal(wantList):
					t.Errorf("%s/%d files: k1 list at %d workers differs from 1 worker's", format, nfiles, workers)
				}
			}
		}
	}
	for _, format := range []string{"tsv", "packed"} {
		for _, nfiles := range []int{1, 3} {
			fs := vfs.NewMem()
			base := Config{Scale: 6, EdgeFactor: 8, Seed: 5, NFiles: nfiles, Format: format, FS: fs}.withDefaults()
			if err := (csrVariant{}).Kernel0(&Run{Cfg: base, FS: fs}); err != nil {
				t.Fatal(err)
			}
			m := int(base.M())
			want := map[bool]uint64{}
			for _, variant := range []string{"csr", "graphblas", "extsort", "columnar"} {
				v, err := Lookup(variant)
				if err != nil {
					t.Fatal(err)
				}
				for _, byUV := range []bool{false, true} {
					if variant == "columnar" && !byUV {
						continue
					}
					for _, workers := range []int{1, 2, 3, 8} {
						for _, runEdges := range []int{0, m/3 + 1, 7} {
							outOfCore := runEdges > 0 || variant == "extsort"
							if outOfCore && workers > 1 {
								continue // the width is the in-memory sort's
							}
							cfg := base
							cfg.Variant, cfg.Workers, cfg.RunEdges, cfg.SortEndVertices = variant, workers, runEdges, byUV
							name := fmt.Sprintf("%s/%d/%s/byUV=%v/w%d/run%d", format, nfiles, variant, byUV, workers, runEdges)
							run := &Run{Cfg: cfg, FS: fs, spare: edge.NewList(m)}
							if err := v.Kernel1(run); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if (run.spare == nil) != outOfCore {
								t.Errorf("%s: spare kept = %v, out of core = %v", name, run.spare != nil, outOfCore)
							}
							got := hashFiles(t, fs, "k1-")
							if w, ok := want[byUV]; !ok {
								want[byUV] = got
							} else if got != w {
								t.Errorf("%s: k1 bytes differ from csr's", name)
							}
						}
					}
				}
			}
		}
	}
}

// TestHugeRunEdges: a run size past any input is a bound, not an
// allocation — csr, extsort and dist (by (u, v) through the serial sort,
// by u through the rank sort) run with RunEdges = MaxInt and equal their
// runs at the default run size, k1 bytes and rank vector.
func TestHugeRunEdges(t *testing.T) {
	for _, tc := range []struct {
		variant string
		byUV    bool
	}{{"csr", false}, {"csr", true}, {"extsort", false}, {"dist", true}, {"dist", false}} {
		var k1 [2]uint64
		var rank [2][]float64
		for i, runEdges := range []int{0, math.MaxInt} {
			cfg := Config{Scale: 8, Seed: 2, NFiles: 2, Variant: tc.variant, Workers: 3,
				SortEndVertices: tc.byUV, RunEdges: runEdges, KeepRank: true, FS: vfs.NewMem()}
			res, err := ExecuteContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s byUV=%v RunEdges=%d: %v", tc.variant, tc.byUV, runEdges, err)
			}
			k1[i], rank[i] = hashFiles(t, cfg.FS, "k1-"), res.Rank
		}
		if k1[0] != k1[1] {
			t.Errorf("%s byUV=%v: k1 bytes differ at RunEdges = MaxInt", tc.variant, tc.byUV)
		}
		for j := range rank[0] {
			if rank[0][j] != rank[1][j] {
				t.Fatalf("%s byUV=%v: rank[%d] differs at RunEdges = MaxInt", tc.variant, tc.byUV, j)
			}
		}
	}
}

// TestPrivateFSDropsConsumedStripes: a run that made its own FS removes
// each stripe set once its last reader is done, so it ends with an empty
// FS; a caller's FS keeps both sets.  Either way the run records the same
// encoded sizes and computes the same ranks.
func TestPrivateFSDropsConsumedStripes(t *testing.T) {
	for _, variant := range VariantNames() {
		t.Run(variant, func(t *testing.T) {
			cfg := Config{Scale: 7, Seed: 3, Variant: variant, Workers: 2, KeepRank: true}
			own, err := ExecuteContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if names, err := own.Config.FS.List(); err != nil || len(names) != 0 {
				t.Errorf("run-private FS holds %v (%v) after the run, want nothing", names, err)
			}
			cfg.FS = vfs.NewMem()
			kept, err := ExecuteContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			codec, err := fastio.CodecByName(FormatName(kept.Config))
			if err != nil {
				t.Fatal(err)
			}
			for _, prefix := range []string{"k0", "k1"} {
				n, err := fastio.StripedBytes(cfg.FS, prefix, codec)
				if err != nil {
					t.Fatalf("caller's FS lost %s: %v", prefix, err)
				}
				if own.EncodedBytes[prefix] != n || kept.EncodedBytes[prefix] != n {
					t.Errorf("%s encoded bytes: private run %d, caller's run %d, on disk %d",
						prefix, own.EncodedBytes[prefix], kept.EncodedBytes[prefix], n)
				}
			}
			if !slices.Equal(own.Rank, kept.Rank) {
				t.Error("dropping consumed stripes changed the rank vector")
			}
		})
	}
}

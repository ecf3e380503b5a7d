package serve

// The recycling rule of a run's edge lists (DESIGN.md §12), from the
// cache's side: a run decodes kernel 1's input (and kernel 2's, where
// kernel 2 does not stream) into the list the previous kernel left, or a
// new one — whatever subset of
// kernels it executes, and whether or not the matrix hit — and the
// cache, which holds the matrix alone, is never written through them.

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/vfs"
)

func hashList(l *edge.List) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range [][]uint64{l.U, l.V} {
		for _, x := range s {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func hashMatrix(m *sparse.CSR) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range m.RowPtr {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	for i, c := range m.Col {
		binary.LittleEndian.PutUint64(b[:], uint64(c)<<32^math.Float64bits(m.Val[i]))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestRecycledListsNeverAliasCache(t *testing.T) {
	ctx := context.Background()
	all := []pipeline.Kernel{pipeline.K0Generate, pipeline.K1Sort, pipeline.K2Filter, pipeline.K3PageRank}
	for _, variant := range []string{"csr", "columnar", "dist"} {
		t.Run(variant, func(t *testing.T) {
			svc := New()
			defer svc.Close()
			// One store for every run, so a kernel subset finds the files
			// its predecessors wrote.
			cfg := pipeline.Config{Scale: 10, EdgeFactor: 16, Seed: 7, Variant: variant, FS: vfs.NewMem(), KeepRank: true}
			key := GraphKey{Generator: pipeline.GenKronecker, Scale: 10, EdgeFactor: 16, Seed: 7}

			var matrix *sparse.CSR // the resident artifact, once seen
			var matrixHash uint64
			var rank []float64
			step := func(name string, ks ...pipeline.Kernel) *pipeline.Result {
				t.Helper()
				res, err := svc.Run(ctx, cfg, WithKernels(ks...))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if art := residentArtifact(svc.cache, key); art != nil {
					if matrix == nil {
						matrix, matrixHash = art.m, hashMatrix(art.m)
					}
					if art.m != matrix {
						t.Fatalf("%s: the resident matrix was replaced", name)
					}
					if hashMatrix(art.m) != matrixHash {
						t.Fatalf("%s: the resident matrix changed under the run", name)
					}
				}
				if res.Rank != nil {
					if rank == nil {
						rank = res.Rank
					}
					for i := range rank {
						if res.Rank[i] != rank[i] {
							t.Fatalf("%s: rank[%d] differs from the first full run's", name, i)
						}
					}
				}
				return res
			}

			step("K0", pipeline.K0Generate)
			step("K0+K1", pipeline.K0Generate, pipeline.K1Sort)
			step("K1 alone", pipeline.K1Sort)
			if svc.Stats().CacheEntries != 0 {
				t.Fatal("a run without kernel 2 left a cache entry")
			}
			cold := step("cold", all...)
			if matrix == nil || cold.Cache.Matrix.Misses != 1 {
				t.Fatalf("cold run: cache record %+v, resident matrix %v", cold.Cache, matrix != nil)
			}
			if warm := step("warm", all...); warm.Cache.Matrix.Hits != 1 {
				t.Fatalf("warm run: cache record %+v", warm.Cache)
			}
			step("K1+K2 warm", pipeline.K1Sort, pipeline.K2Filter)
		})
	}
}

// TestRecycledListsKernelSubsets: a run that starts at kernel 1 or 2 has
// no list of its own to decode into and makes one; a run that stops early
// keeps its spare to itself.  Either way the files and the matrix are the
// full run's.
func TestRecycledListsKernelSubsets(t *testing.T) {
	ctx := context.Background()
	for _, variant := range []string{"csr", "coo", "columnar", "graphblas", "dist", "distext"} {
		t.Run(variant, func(t *testing.T) {
			svc := New(WithCacheBudget(0))
			defer svc.Close()
			fs := vfs.NewMem()
			cfg := pipeline.Config{Scale: 9, Seed: 3, Variant: variant, FS: fs, NFiles: 2, KeepRank: true}
			if variant == "distext" { // dist with kernel 1 out of core
				cfg.Variant, cfg.RunEdges = "dist", int(cfg.M()/8)
			}
			codec, err := fastio.CodecByName(pipeline.FormatName(cfg))
			if err != nil {
				t.Fatal(err)
			}
			sortedFiles := func() uint64 {
				l, err := fastio.ReadStriped(fs, "k1", codec)
				if err != nil {
					t.Fatal(err)
				}
				return hashList(l)
			}
			run := func(ks ...pipeline.Kernel) *pipeline.Result {
				t.Helper()
				res, err := svc.Run(ctx, cfg, WithKernels(ks...))
				if err != nil {
					t.Fatalf("kernels %v: %v", ks, err)
				}
				return res
			}
			full := run(pipeline.K0Generate, pipeline.K1Sort, pipeline.K2Filter, pipeline.K3PageRank)
			want := sortedFiles()

			run(pipeline.K1Sort)
			if sortedFiles() != want {
				t.Error("kernel 1 alone wrote different k1 files")
			}
			run(pipeline.K0Generate, pipeline.K1Sort)
			if sortedFiles() != want {
				t.Error("kernels 0+1 wrote different k1 files")
			}
			if res := run(pipeline.K2Filter); res.NNZ != full.NNZ || res.MatrixMass != full.MatrixMass {
				t.Errorf("kernel 2 alone: NNZ %d mass %v, full run %d / %v", res.NNZ, res.MatrixMass, full.NNZ, full.MatrixMass)
			}
			res := run(pipeline.K1Sort, pipeline.K2Filter, pipeline.K3PageRank)
			for i := range full.Rank {
				if res.Rank[i] != full.Rank[i] {
					t.Fatalf("kernels 1-3: rank[%d] differs from the full run's", i)
				}
			}
		})
	}
}

package serve

// The ownership rule of a run's recycled edge lists (DESIGN.md §12), from
// the cache's side: a run decodes kernel 1's and kernel 2's input into a
// list it generated or decoded itself, and never into one the cache
// holds — whatever subset of kernels it executes, and whichever of the
// stages hit.

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/pipeline"
	"repro/internal/vfs"
	"repro/internal/xsort"
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

// residentList returns the list the cache holds under key, or nil — read
// straight from the entry, so that looking does not count as a hit.
func residentList(c *artifactCache, key cacheKey) *edge.List {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		return e.val.(*edge.List)
	}
	return nil
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
			byUV := variant == "columnar"

			// What the cache must hold, computed without it.
			ref, err := pipeline.GenerateEdges(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantEdges := hashList(ref)
			if byUV {
				xsort.RadixByUV(ref)
			} else {
				xsort.RadixByU(ref)
			}
			wantSorted := hashList(ref)

			edgesKey := cacheKey{stage: stageEdges, graph: keyOf(cfg)}
			sortedKey := cacheKey{stage: stageSorted, graph: keyOf(cfg), byUV: byUV}
			var edges, sorted *edge.List // the resident artifacts, once seen
			var rank []float64
			step := func(name string, ks ...pipeline.Kernel) *pipeline.Result {
				t.Helper()
				res, err := svc.Run(ctx, cfg, WithKernels(ks...))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if l := residentList(svc.cache, edgesKey); l != nil {
					if edges != nil && l != edges {
						t.Fatalf("%s: the resident edge list was replaced", name)
					}
					if edges = l; hashList(l) != wantEdges {
						t.Fatalf("%s: the resident edge list changed under the run", name)
					}
				}
				if l := residentList(svc.cache, sortedKey); l != nil {
					if sorted != nil && l != sorted {
						t.Fatalf("%s: the resident sorted list was replaced", name)
					}
					if sorted = l; hashList(l) != wantSorted {
						t.Fatalf("%s: the resident sorted list changed under the run", name)
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

			step("K0 cold", pipeline.K0Generate) // the cache generates; kernel 0 only writes
			if edges == nil {
				t.Fatal("kernel 0 left no resident edge list")
			}
			step("K0+K1", pipeline.K0Generate, pipeline.K1Sort) // a sourced list must not become K1's decode target
			step("K1 alone", pipeline.K1Sort)
			cold := step("cold", all...) // K1's list goes to the cache; K2 must decode into another
			if sorted == nil || cold.Cache.Sorted.Misses != 1 || cold.Cache.Matrix.Misses != 1 {
				t.Fatalf("cold run: cache record %+v, resident sorted list %v", cold.Cache, sorted != nil)
			}
			if warm := step("warm", all...); warm.Cache.Matrix.Hits != 1 {
				t.Fatalf("warm run: cache record %+v", warm.Cache)
			}
			step("K1+K2 warm", pipeline.K1Sort, pipeline.K2Filter)

			// Without the matrix the sorted stage hits: kernel 2 consumes the
			// shared list itself (columnar's in-place filter, a copy of it).
			svc.cache.mu.Lock()
			st := stageMatrix
			evicted := svc.cache.evictOldestLocked(nil, &st)
			svc.cache.mu.Unlock()
			if !evicted {
				t.Fatal("no resident matrix to evict")
			}
			if res := step("sorted hit", all...); res.Cache.Sorted.Hits != 1 {
				t.Fatalf("sorted-hit run: cache record %+v", res.Cache)
			}
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

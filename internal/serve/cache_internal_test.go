package serve

// White-box tests of the matrix cache's bookkeeping: byte-cost LRU
// eviction order, the entry cap, the never-evict-the-just-filled rule,
// in-flight entries' immunity, the singleflight retry protocol after a
// failed fill, and the one transpose kept beside each matrix.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sparse"
)

// key builds a distinct cache key.
func key(i int) GraphKey {
	return GraphKey{Generator: "kronecker", Scale: i, EdgeFactor: 16, Seed: 1}
}

// artifact builds a distinct stand-in artifact.
func artifact(id string) *matrixArtifact { return &matrixArtifact{id: id} }

// mustFill acquires key as a miss and fills it with the given cost.
func mustFill(t *testing.T, c *artifactCache, k GraphKey, cost int64) {
	t.Helper()
	art, hit, fill, err := c.acquire(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatalf("key %+v: want miss, got hit %v", k, art.id)
	}
	fill(artifact(fmt.Sprintf("artifact-%d", k.Scale)), cost, nil)
}

// resident reports whether key is resident (served without blocking).
func resident(c *artifactCache, k GraphKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	return ok && e.elem != nil
}

func TestCacheBudgetEvictsLRUOrder(t *testing.T) {
	c := newArtifactCache(0, 100)
	a, b, d := key(1), key(2), key(3)
	mustFill(t, c, a, 40)
	mustFill(t, c, b, 40)
	// Touch a so b becomes the least recently used.
	if _, hit, _, _ := c.acquire(context.Background(), a); !hit {
		t.Fatal("a should be resident")
	}
	mustFill(t, c, d, 40) // 120 > 100: evict exactly one, the LRU (b)
	if resident(c, b) {
		t.Fatal("b (LRU) should have been evicted")
	}
	if !resident(c, a) || !resident(c, d) {
		t.Fatal("a (touched) and d (just filled) must stay resident")
	}
	st := c.stats()
	if st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats = %+v, want 2 entries / 80 bytes", st)
	}
}

func TestCacheEntryCap(t *testing.T) {
	c := newArtifactCache(2, 0)
	mustFill(t, c, key(1), 10)
	mustFill(t, c, key(2), 10)
	mustFill(t, c, key(3), 10) // third entry: evict the LRU only
	if resident(c, key(1)) {
		t.Fatal("oldest entry should have been evicted")
	}
	if !resident(c, key(2)) || !resident(c, key(3)) {
		t.Fatal("newer entries must survive")
	}
	if st := c.stats(); st.Entries != 2 || st.Bytes != 20 {
		t.Fatalf("stats = %+v, want 2 entries / 20 bytes", st)
	}
}

func TestCacheOversizedArtifactStaysResident(t *testing.T) {
	c := newArtifactCache(0, 10)
	big := key(1)
	mustFill(t, c, big, 50) // larger than the whole budget
	if !resident(c, big) {
		t.Fatal("the just-filled artifact must never be evicted")
	}
	// The next deposit displaces it.
	next := key(2)
	mustFill(t, c, next, 8)
	if resident(c, big) {
		t.Fatal("the oversized artifact should be displaced by the next fill")
	}
	if !resident(c, next) {
		t.Fatal("the fitting artifact must be resident")
	}
}

func TestCacheInFlightEntryNotEvictable(t *testing.T) {
	c := newArtifactCache(0, 50)
	pending := key(1)
	_, hit, fillPending, err := c.acquire(context.Background(), pending)
	if err != nil || hit {
		t.Fatalf("want miss, got hit=%v err=%v", hit, err)
	}
	// Budget pressure while the fill is in flight must not touch it.
	mustFill(t, c, key(2), 60)
	c.mu.Lock()
	_, stillThere := c.entries[pending]
	c.mu.Unlock()
	if !stillThere {
		t.Fatal("in-flight entry was evicted")
	}
	v := artifact("v")
	fillPending(v, 10, nil)
	got, hit, _, err := c.acquire(context.Background(), pending)
	if err != nil || !hit || got != v {
		t.Fatalf("in-flight entry lost its fill: hit=%v err=%v", hit, err)
	}
}

func TestCacheFailedFillRetriesNextCaller(t *testing.T) {
	c := newArtifactCache(0, 100)
	k := key(1)
	_, _, fill, err := c.acquire(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	recovered := artifact("recovered")
	// A waiter joins the in-flight fill, then the filler fails.
	got := make(chan error, 1)
	joined := make(chan struct{})
	go func() {
		c.mu.Lock()
		_, ok := c.entries[k]
		c.mu.Unlock()
		if !ok {
			got <- errors.New("entry gone before join")
			return
		}
		close(joined)
		art, hit, fill2, err := c.acquire(context.Background(), k)
		if err != nil {
			got <- err
			return
		}
		if hit {
			got <- fmt.Errorf("served a poisoned artifact %v", art)
			return
		}
		fill2(recovered, 10, nil)
		got <- nil
	}()
	<-joined
	fill(nil, 0, errors.New("cancelled mid-fill"))
	if err := <-got; err != nil {
		t.Fatalf("waiter after failed fill: %v", err)
	}
	art, hit, _, err := c.acquire(context.Background(), k)
	if err != nil || !hit || art != recovered {
		t.Fatalf("retry fill not served: hit=%v err=%v", hit, err)
	}
	st := c.stats()
	// Misses: original filler, the retrying waiter.  Hits: the final
	// read.  The failed fill is never counted as a hit.
	if st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 1 hit", st)
	}
}

func TestCacheAcquireRespectsContext(t *testing.T) {
	c := newArtifactCache(0, 100)
	k := key(1)
	_, _, fill, err := c.acquire(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.acquire(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting on an in-flight fill with a cancelled ctx: %v", err)
	}
	v := artifact("v")
	fill(v, 1, nil) // the filler is unaffected
	if got, hit, _, err := c.acquire(context.Background(), k); err != nil || !hit || got != v {
		t.Fatalf("fill lost after a cancelled waiter: hit=%v err=%v", hit, err)
	}
}

// TestCacheMatrixTransposeIsBuiltOnceAndCharged pins the exec-ready
// operand kept beside the matrix artifact: Aᵀ is built on first use
// only — by the filler's lease as readily as by a hit's — every lease
// shares it, it is charged to the byte budget and goes when its matrix
// goes — and a refilled key gets a new identity, which is how a
// resident worker fabric learns its row blocks are stale.
func TestCacheMatrixTransposeIsBuiltOnceAndCharged(t *testing.T) {
	m := &sparse.CSR{N: 2, RowPtr: []int64{0, 1, 2}, Col: []uint32{1, 0}, Val: []float64{1, 0.5}}
	ctx := context.Background()
	c := newArtifactCache(0, 3*m.Footprint())
	k := key(1)
	miss, err := c.matrixLease(ctx, k)
	if err != nil || miss.Hit || miss.ID == "" {
		t.Fatalf("first lease: %+v, %v", miss, err)
	}
	miss.Fill(m, 2, nil)
	if got := c.stats().Bytes; got != m.Footprint() {
		t.Fatalf("resident bytes %d before any gather use, want the matrix's %d", got, m.Footprint())
	}
	h1, _ := c.matrixLease(ctx, k)
	h2, _ := c.matrixLease(ctx, k)
	if !h1.Hit || h1.ID != miss.ID || h2.ID != miss.ID {
		t.Fatalf("hit ids %q, %q; the fill reserved %q", h1.ID, h2.ID, miss.ID)
	}
	at := h1.Transposed()
	if at.Ptr[1] != 1 || at.Label[0] != 0 || at.Col[0] != 1 || at.Scale[1] != 0.5 {
		t.Fatalf("transpose %+v", at)
	}
	if h2.Transposed() != at || h1.Transposed() != at || miss.Transposed() != at {
		t.Fatal("leases built separate transposes")
	}
	if got, want := c.stats().Bytes, m.Footprint()+at.Footprint(); got != want {
		t.Fatalf("resident bytes %d, want matrix + transpose = %d", got, want)
	}

	// A second matrix's deposit pushes the pair out together.
	mustFill(t, c, key(2), 2*m.Footprint())
	if resident(c, k) {
		t.Fatal("matrix + transpose should have been evicted as one entry")
	}
	if got := c.stats().Bytes; got != 2*m.Footprint() {
		t.Fatalf("resident bytes %d after eviction, want %d", got, 2*m.Footprint())
	}
	refill, _ := c.matrixLease(ctx, k)
	if refill.Hit || refill.ID == miss.ID {
		t.Fatalf("refill lease %+v reuses identity %q", refill, miss.ID)
	}
	refill.Fill(m, 2, nil)
}

// residentArtifact returns the artifact the cache holds under key, or nil
// — read straight from the entry, so that looking does not count as a hit.
func residentArtifact(c *artifactCache, key GraphKey) *matrixArtifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		return e.art
	}
	return nil
}

// TestServiceCachesOnlyTheMatrix: a cold run through a default Service
// leaves one resident entry — the kernel-2 matrix and, built by that
// run's gather kernel 3, its transpose — and no edge list.
func TestServiceCachesOnlyTheMatrix(t *testing.T) {
	svc := New()
	defer svc.Close()
	cfg := pipeline.Config{Scale: 10, Seed: 5, Variant: "csr"}
	if _, err := svc.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	art := residentArtifact(svc.cache, GraphKey{Generator: pipeline.GenKronecker, Scale: 10, EdgeFactor: 16, Seed: 5})
	if art == nil || art.t == nil {
		t.Fatal("no resident matrix with its transpose after a cold csr run")
	}
	st := svc.Stats()
	if want := art.m.Footprint() + art.t.Footprint(); st.CacheEntries != 1 || st.CacheBytes != want {
		t.Fatalf("%d entries / %d bytes resident, want the matrix and its transpose alone: 1 / %d",
			st.CacheEntries, st.CacheBytes, want)
	}
}

// TestColdRunBuildsTheSharedTranspose: the run that fills the matrix
// entry builds its kernel 3's transpose into the entry, so the next warm
// run is handed that very transpose and the resident bytes do not move.
func TestColdRunBuildsTheSharedTranspose(t *testing.T) {
	svc := New()
	defer svc.Close()
	ctx := context.Background()
	cfg := pipeline.Config{Scale: 9, Seed: 2, Variant: "csr", KeepRank: true}
	cold, err := svc.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := GraphKey{Generator: pipeline.GenKronecker, Scale: 9, EdgeFactor: 16, Seed: 2}
	art := residentArtifact(svc.cache, key)
	if art == nil || art.t == nil {
		t.Fatal("the cold run left no transpose beside the matrix")
	}
	bytes := svc.Stats().CacheMatrix.Bytes
	// The warm run's lease, with its Transposed recorded as kernel 3
	// calls it.
	var served []*sparse.Ordered
	cfg.MatrixSource = func(dcfg pipeline.Config) (pipeline.MatrixLease, error) {
		lease, err := svc.cache.matrixLease(ctx, keyOf(dcfg))
		if tr := lease.Transposed; tr != nil {
			lease.Transposed = func() *sparse.Ordered {
				served = append(served, tr())
				return served[len(served)-1]
			}
		}
		return lease, err
	}
	warm, err := svc.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
		t.Fatalf("warm run: cache record %+v, want a matrix hit", warm.Cache)
	}
	if len(served) != 1 || served[0] != art.t {
		t.Fatalf("warm run was handed %d transposes, want the cold run's one", len(served))
	}
	if got := svc.Stats().CacheMatrix.Bytes; got != bytes {
		t.Fatalf("resident bytes %d after the warm run, %d after the cold one", got, bytes)
	}
	for i := range cold.Rank {
		if warm.Rank[i] != cold.Rank[i] {
			t.Fatalf("rank[%d] differs warm vs cold", i)
		}
	}
}

package serve

// White-box tests of the staged artifact cache's bookkeeping: byte-cost
// LRU eviction order, the per-stage entry cap, the never-evict-the-
// just-filled rule, in-flight entries' immunity, and the singleflight
// retry protocol after a failed fill.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sparse"
)

// key builds a distinct cache key in the given stage.
func key(st stage, i int) cacheKey {
	return cacheKey{stage: st, graph: GraphKey{Generator: "kronecker", Scale: i, EdgeFactor: 16, Seed: 1}}
}

// mustFill acquires key as a miss and fills it with the given cost.
func mustFill(t *testing.T, c *artifactCache, k cacheKey, cost int64) {
	t.Helper()
	val, hit, fill, err := c.acquire(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatalf("key %+v: want miss, got hit %v", k, val)
	}
	fill(fmt.Sprintf("artifact-%d", k.graph.Scale), cost, nil)
}

// resident reports whether key is resident (served without blocking).
func resident(c *artifactCache, k cacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	return ok && e.elem != nil
}

func TestCacheBudgetEvictsLRUOrder(t *testing.T) {
	c := newArtifactCache(0, 100)
	a, b, d := key(stageEdges, 1), key(stageEdges, 2), key(stageEdges, 3)
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
	st := c.stageStats(stageEdges)
	if st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stage stats = %+v, want 2 entries / 80 bytes", st)
	}
}

func TestCacheBudgetSpansStages(t *testing.T) {
	// The byte budget is a single pool across stages: a matrix deposit
	// evicts a stale edges artifact.
	c := newArtifactCache(0, 100)
	e, m := key(stageEdges, 1), key(stageMatrix, 1)
	mustFill(t, c, e, 60)
	mustFill(t, c, m, 60)
	if resident(c, e) {
		t.Fatal("edges entry should have been evicted by the matrix deposit")
	}
	if !resident(c, m) {
		t.Fatal("matrix entry must be resident")
	}
}

func TestCacheStageCapIsPerStage(t *testing.T) {
	c := newArtifactCache(2, 0)
	mustFill(t, c, key(stageEdges, 1), 10)
	mustFill(t, c, key(stageSorted, 1), 10)
	mustFill(t, c, key(stageEdges, 2), 10)
	mustFill(t, c, key(stageEdges, 3), 10) // third edges entry: evict edges LRU only
	if resident(c, key(stageEdges, 1)) {
		t.Fatal("oldest edges entry should have been evicted")
	}
	if !resident(c, key(stageEdges, 2)) || !resident(c, key(stageEdges, 3)) {
		t.Fatal("newer edges entries must survive")
	}
	if !resident(c, key(stageSorted, 1)) {
		t.Fatal("the cap is per stage; the sorted entry must survive")
	}
}

func TestCacheOversizedArtifactStaysResident(t *testing.T) {
	c := newArtifactCache(0, 10)
	big := key(stageMatrix, 1)
	mustFill(t, c, big, 50) // larger than the whole budget
	if !resident(c, big) {
		t.Fatal("the just-filled artifact must never be evicted")
	}
	// The next deposit displaces it.
	next := key(stageMatrix, 2)
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
	pending := key(stageSorted, 1)
	_, hit, fillPending, err := c.acquire(context.Background(), pending)
	if err != nil || hit {
		t.Fatalf("want miss, got hit=%v err=%v", hit, err)
	}
	// Budget pressure while the fill is in flight must not touch it.
	mustFill(t, c, key(stageEdges, 1), 60)
	c.mu.Lock()
	_, stillThere := c.entries[pending]
	c.mu.Unlock()
	if !stillThere {
		t.Fatal("in-flight entry was evicted")
	}
	fillPending("v", 10, nil)
	val, hit, _, err := c.acquire(context.Background(), pending)
	if err != nil || !hit || val != "v" {
		t.Fatalf("in-flight entry lost its fill: hit=%v val=%v err=%v", hit, val, err)
	}
}

func TestCacheFailedFillRetriesNextCaller(t *testing.T) {
	c := newArtifactCache(0, 100)
	k := key(stageMatrix, 1)
	_, _, fill, err := c.acquire(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
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
		val, hit, fill2, err := c.acquire(context.Background(), k)
		if err != nil {
			got <- err
			return
		}
		if hit {
			got <- fmt.Errorf("served a poisoned value %v", val)
			return
		}
		fill2("recovered", 10, nil)
		got <- nil
	}()
	<-joined
	fill(nil, 0, errors.New("cancelled mid-fill"))
	if err := <-got; err != nil {
		t.Fatalf("waiter after failed fill: %v", err)
	}
	val, hit, _, err := c.acquire(context.Background(), k)
	if err != nil || !hit || val != "recovered" {
		t.Fatalf("retry fill not served: hit=%v val=%v err=%v", hit, val, err)
	}
	st := c.stageStats(stageMatrix)
	// Misses: original filler, the retrying waiter.  Hits: the final
	// read.  The failed fill is never counted as a hit.
	if st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stage stats = %+v, want 2 misses / 1 hit", st)
	}
}

func TestCacheAcquireRespectsContext(t *testing.T) {
	c := newArtifactCache(0, 100)
	k := key(stageSorted, 1)
	_, _, fill, err := c.acquire(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.acquire(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting on an in-flight fill with a cancelled ctx: %v", err)
	}
	fill("v", 1, nil) // the filler is unaffected
	if val, hit, _, err := c.acquire(context.Background(), k); err != nil || !hit || val != "v" {
		t.Fatalf("fill lost after a cancelled waiter: hit=%v val=%v err=%v", hit, val, err)
	}
}

// TestCacheMatrixTransposeIsBuiltOnceAndCharged pins the exec-ready
// operand kept beside the matrix artifact: Aᵀ is built on first use
// only, every hit shares it, it is charged to the byte budget and goes
// when its matrix goes — and a refilled key gets a new identity, which
// is how a resident worker fabric learns its row blocks are stale.
func TestCacheMatrixTransposeIsBuiltOnceAndCharged(t *testing.T) {
	m := &sparse.CSR{N: 2, RowPtr: []int64{0, 1, 2}, Col: []uint32{1, 0}, Val: []float64{1, 0.5}}
	ctx := context.Background()
	c := newArtifactCache(0, 3*m.Footprint())
	k := key(stageMatrix, 1)
	miss, err := c.matrixLease(ctx, k)
	if err != nil || miss.Hit || miss.ID == "" {
		t.Fatalf("first lease: %+v, %v", miss, err)
	}
	miss.Fill(m, 2, nil)
	if got := c.stageStats(stageMatrix).Bytes; got != m.Footprint() {
		t.Fatalf("resident bytes %d before any gather use, want the matrix's %d", got, m.Footprint())
	}
	h1, _ := c.matrixLease(ctx, k)
	h2, _ := c.matrixLease(ctx, k)
	if !h1.Hit || h1.ID != miss.ID || h2.ID != miss.ID {
		t.Fatalf("hit ids %q, %q; the fill reserved %q", h1.ID, h2.ID, miss.ID)
	}
	at := h1.Transposed()
	if at.Ptr[1] != 1 || at.Rows[0] != 0 || at.Col[0] != 1 || at.Val[0] != 0.5 {
		t.Fatalf("transpose %+v", at)
	}
	if h2.Transposed() != at || h1.Transposed() != at {
		t.Fatal("hits built separate transposes")
	}
	if got, want := c.stageStats(stageMatrix).Bytes, m.Footprint()+at.Footprint(); got != want {
		t.Fatalf("resident bytes %d, want matrix + transpose = %d", got, want)
	}

	// A second matrix's deposit pushes the pair out together.
	mustFill(t, c, key(stageMatrix, 2), 2*m.Footprint())
	if resident(c, k) {
		t.Fatal("matrix + transpose should have been evicted as one entry")
	}
	if got := c.stageStats(stageMatrix).Bytes; got != 2*m.Footprint() {
		t.Fatalf("resident bytes %d after eviction, want %d", got, 2*m.Footprint())
	}
	refill, _ := c.matrixLease(ctx, k)
	if refill.Hit || refill.ID == miss.ID {
		t.Fatalf("refill lease %+v reuses identity %q", refill, miss.ID)
	}
	refill.Fill(m, 2, nil)
}

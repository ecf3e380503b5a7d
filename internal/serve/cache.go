package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/internal/edge"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

// artifactCache is the service's shared staged artifact cache: one
// singleflight map from artifact identity to cached value, spanning
// three levels of the pipeline —
//
//	edges  (stage 0): the raw kernel-0 edge list, keyed GraphKey
//	sorted (stage 1): the kernel-1 sorted list, keyed GraphKey × order
//	matrix (stage 2): the kernel-2 filtered, normalized matrix, keyed
//	                  GraphKey × filter rule
//
// The contract that makes sharing safe is read-only artifacts: kernels
// only write a sourced list to storage, dist.Execute never mutates its
// Edges, the kernel-3 engines never mutate A, and the one destructive
// consumer (the columnar kernel 2) deep-copies first.  The kernel-2
// matrix is canonical — column-sorted rows, duplicates accumulated —
// so one deposit serves every variant bit-for-bit.
//
// Singleflight: the first caller of a key becomes the filler (a miss)
// and receives a fill obligation; every caller that arrives while the
// fill is in flight joins the same entry and blocks on its ready
// channel (a hit — the work was shared, not repeated).  A fill that
// delivers an error — including a cancelled run's — deletes the entry
// and wakes the waiters, who retry the key: the next one in becomes
// the new filler, so a failed or cancelled fill never poisons the key.
//
// Eviction is LRU over ready entries across all stages, governed by
// two optional bounds: a byte budget (artifacts charged at their real
// Footprint) and a per-stage resident-entry cap (the default Service's
// bound).  In-flight entries are not on the LRU list and cannot be
// evicted; evicting a ready entry only drops cache residency — runs
// already holding the artifact keep it alive.
type artifactCache struct {
	mu       sync.Mutex
	stageCap int   // per-stage resident-entry cap; 0 = uncapped
	budget   int64 // total resident-byte budget; 0 = uncapped
	entries  map[cacheKey]*cacheEntry
	order    *list.List // LRU: front = most recently used; ready entries only
	stats    [numStages]cacheStageStats
	fills    uint64 // matrix-stage fill generations reserved
}

// stage identifies one cached artifact level.
type stage int

const (
	stageEdges stage = iota
	stageSorted
	stageMatrix
	numStages
)

// defaultFilterRule names the kernel-2 filter the matrix stage caches
// under.  The filter currently has no configuration knobs; the key
// component future-proofs the identity for when it grows some.
const defaultFilterRule = "supernode-leaf-v1"

// cacheKey is an artifact's identity.
type cacheKey struct {
	stage stage
	graph GraphKey
	// byUV is the sorted stage's order dimension: true for fully
	// (u, v)-sorted lists (SortEndVertices runs and the columnar
	// variant), false for the default by-start-vertex order.
	byUV bool
	// filter is the matrix stage's filter-rule identity.
	filter string
}

// matrixArtifact is the matrix stage's cached value: the filtered,
// normalized matrix plus the pre-filter mass a warm Result reports,
// the identity warm runs name it by, and — built on first gather use,
// then shared like the matrix — its length-ordered transpose.
type matrixArtifact struct {
	m    *sparse.CSR
	mass float64
	// id is the cache key plus the fill generation, reserved when the
	// filler's lease is handed out: a key evicted and refilled gets a
	// new id, so holders of exec-ready state derived from the old fill
	// (resident rank blocks) can tell.
	id    string
	tOnce sync.Once
	t     *sparse.Ordered
}

type cacheEntry struct {
	key   cacheKey
	ready chan struct{} // closed when val/err are final
	val   any
	cost  int64
	err   error
	elem  *list.Element // nil until the entry is ready and resident
}

// cacheStageStats is one stage's cumulative counters.
type cacheStageStats struct {
	hits    uint64
	misses  uint64
	entries int
	bytes   int64
}

// newArtifactCache constructs a cache with the given bounds; either
// bound may be zero (uncapped), but the Service never constructs a
// cache with both zero.
func newArtifactCache(stageCap int, budget int64) *artifactCache {
	return &artifactCache{
		stageCap: stageCap,
		budget:   budget,
		entries:  make(map[cacheKey]*cacheEntry),
		order:    list.New(),
	}
}

// acquire resolves key: (val, true, nil, nil) on a hit — resident, or
// joined in flight and filled successfully — or (nil, false, fill,
// nil) on a miss, in which case the caller MUST invoke fill exactly
// once, with the artifact or with an error.  Waiting on an in-flight
// fill respects ctx.  A hit is counted only when a value is actually
// served and a miss only when the caller becomes the filler, so the
// metered hits are exactly the computations the cache saved.
func (c *artifactCache) acquire(ctx context.Context, key cacheKey) (any, bool, func(any, int64, error), error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil {
				c.order.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			select {
			case <-e.ready:
				if e.err != nil {
					// The filler failed or was cancelled; the entry is
					// already gone.  Retry: this caller becomes the
					// next filler unless someone beat it to the key.
					if cerr := ctx.Err(); cerr != nil {
						return nil, false, nil, cerr
					}
					continue
				}
				c.mu.Lock()
				c.stats[key.stage].hits++
				c.mu.Unlock()
				return e.val, true, nil, nil
			case <-ctx.Done():
				return nil, false, nil, ctx.Err()
			}
		}
		c.stats[key.stage].misses++
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		return nil, false, func(val any, cost int64, err error) {
			c.fill(e, val, cost, err)
		}, nil
	}
}

// fill completes an acquire miss: it publishes the value (or the
// error) to every waiter and, on success, makes the entry resident and
// runs eviction.  Failures are delivered, never cached.
func (c *artifactCache) fill(e *cacheEntry, val any, cost int64, err error) {
	c.mu.Lock()
	e.val, e.cost, e.err = val, cost, err
	if err != nil {
		delete(c.entries, e.key)
	} else {
		e.elem = c.order.PushFront(e)
		c.stats[e.key.stage].entries++
		c.stats[e.key.stage].bytes += cost
		c.evictLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
}

// evictLocked enforces the per-stage cap and the byte budget, oldest
// entries first.  The just-filled entry is never evicted: an artifact
// larger than the whole budget stays resident (and alone) until the
// next fill displaces it — evicting it immediately would make its key
// thrash on every run.
func (c *artifactCache) evictLocked(keep *cacheEntry) {
	if c.stageCap > 0 {
		st := keep.key.stage
		for c.stats[st].entries > c.stageCap {
			if !c.evictOldestLocked(keep, &st) {
				break
			}
		}
	}
	if c.budget > 0 {
		for c.totalBytesLocked() > c.budget {
			if !c.evictOldestLocked(keep, nil) {
				break
			}
		}
	}
}

// evictOldestLocked removes the least-recently-used resident entry,
// skipping keep; when st is non-nil only that stage's entries are
// candidates.  It reports whether an entry was evicted.
func (c *artifactCache) evictOldestLocked(keep *cacheEntry, st *stage) bool {
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if e == keep || (st != nil && e.key.stage != *st) {
			continue
		}
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.stats[e.key.stage].entries--
		c.stats[e.key.stage].bytes -= e.cost
		return true
	}
	return false
}

// charge adds delta bytes to key's resident entry — exec-ready state
// built beside a cached artifact after its fill — and re-runs eviction.
// It is a no-op when val is no longer what the key holds: an evicted
// artifact's late additions live and die with the runs still using it.
func (c *artifactCache) charge(key cacheKey, val any, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil && e.val == val {
		e.cost += delta
		c.stats[key.stage].bytes += delta
		c.evictLocked(e)
	}
}

func (c *artifactCache) totalBytesLocked() int64 {
	var b int64
	for st := stage(0); st < numStages; st++ {
		b += c.stats[st].bytes
	}
	return b
}

// edges resolves the raw-edge-list stage for key, generating with gen
// on a miss.  The bool reports a cache hit (resident or joined).
func (c *artifactCache) edges(ctx context.Context, key GraphKey, gen func() (*edge.List, error)) (*edge.List, bool, error) {
	val, hit, fill, err := c.acquire(ctx, cacheKey{stage: stageEdges, graph: key})
	if err != nil {
		return nil, false, err
	}
	if hit {
		return val.(*edge.List), true, nil
	}
	l, err := gen()
	if err != nil {
		fill(nil, 0, err)
		return nil, false, err
	}
	fill(l, l.Footprint(), nil)
	return l, false, nil
}

// sortedLease resolves the sorted stage as a pipeline.SortedLease.
func (c *artifactCache) sortedLease(ctx context.Context, key cacheKey) (pipeline.SortedLease, error) {
	val, hit, fill, err := c.acquire(ctx, key)
	if err != nil {
		return pipeline.SortedLease{}, err
	}
	if hit {
		return pipeline.SortedLease{List: val.(*edge.List), Hit: true}, nil
	}
	return pipeline.SortedLease{Fill: func(l *edge.List, err error) {
		if err == nil && l == nil {
			err = fmt.Errorf("serve: sorted fill delivered no list")
		}
		if err != nil {
			fill(nil, 0, err)
			return
		}
		fill(l, l.Footprint(), nil)
	}}, nil
}

// matrixLease resolves the matrix stage as a pipeline.MatrixLease.
func (c *artifactCache) matrixLease(ctx context.Context, key cacheKey) (pipeline.MatrixLease, error) {
	val, hit, fill, err := c.acquire(ctx, key)
	if err != nil {
		return pipeline.MatrixLease{}, err
	}
	if hit {
		art := val.(*matrixArtifact)
		return pipeline.MatrixLease{Matrix: art.m, Mass: art.mass, Hit: true, ID: art.id,
			Transposed: func() *sparse.Ordered {
				art.tOnce.Do(func() {
					art.t = art.m.TransposeOrdered()
					c.charge(key, art, art.t.Footprint())
				})
				return art.t
			}}, nil
	}
	c.mu.Lock()
	c.fills++
	id := fmt.Sprintf("%+v#%d", key, c.fills)
	c.mu.Unlock()
	return pipeline.MatrixLease{ID: id, Fill: func(m *sparse.CSR, mass float64, err error) {
		if err == nil && m == nil {
			err = fmt.Errorf("serve: matrix fill delivered no matrix")
		}
		if err != nil {
			fill(nil, 0, err)
			return
		}
		fill(&matrixArtifact{m: m, mass: mass, id: id}, m.Footprint(), nil)
	}}, nil
}

// stageStats snapshots one stage's counters.
func (c *artifactCache) stageStats(st stage) StageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats[st]
	return StageStats{Hits: s.hits, Misses: s.misses, Entries: s.entries, Bytes: s.bytes}
}

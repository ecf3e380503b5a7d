package kronecker

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/fastio/fastiotest"
)

func TestConfigDerivedSizes(t *testing.T) {
	c := New(10, 1)
	if c.N() != 1024 {
		t.Errorf("N = %d, want 1024", c.N())
	}
	if c.M() != 16384 {
		t.Errorf("M = %d, want 16384", c.M())
	}
	// The paper's example: S = 30 gives N = 1,073,741,824 and M = 17,179,869,184.
	c30 := New(30, 0)
	if c30.N() != 1073741824 {
		t.Errorf("N(30) = %d", c30.N())
	}
	if c30.M() != 17179869184 {
		t.Errorf("M(30) = %d", c30.M())
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Scale: 0},
		{Scale: 41},
		{Scale: 10, EdgeFactor: -1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 10, EdgeFactor: 16, A: 0.9, B: 0.05, C: 0.04, D: 0.02}, // sums to 1.01
		{Scale: 10, EdgeFactor: 16, A: 1, B: 0, C: 0, D: 0},            // zero entries
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	if err := New(10, 0).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestGenerateSizesAndRange(t *testing.T) {
	cfg := New(8, 42)
	l, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(l.Len()) != cfg.M() {
		t.Fatalf("generated %d edges, want %d", l.Len(), cfg.M())
	}
	n := cfg.N()
	for i := 0; i < l.Len(); i++ {
		u, v := l.At(i)
		if u >= n || v >= n {
			t.Fatalf("edge %d = (%d,%d) exceeds N = %d", i, u, v, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := New(7, 99)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same config generated different graphs")
	}
	cfg2 := New(7, 100)
	c, _ := Generate(cfg2)
	if a.Equal(c) {
		t.Error("different seeds generated identical graphs")
	}
}

func TestGenerateDegreeSkew(t *testing.T) {
	// The raw Kronecker output is skewed: low labels are popular.
	cfg := New(9, 7)
	cfg.SkipPermutation = true
	l, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxOutDegree(l, cfg.N()); m < 10 {
		t.Fatalf("expected skewed degrees, got max out-degree %d", m)
	}
}

func maxOutDegree(l *edge.List, n uint64) int {
	deg := make([]int, n)
	for _, u := range l.U {
		deg[u]++
	}
	m := 0
	for _, d := range deg {
		if d > m {
			m = d
		}
	}
	return m
}

func TestSkewTowardLowLabelsWithoutPermutation(t *testing.T) {
	// With A = 0.57 the zero bit is favored at every level, so without the
	// scrambling permutation, vertex 0's quadrant must be the most popular.
	cfg := New(10, 3)
	cfg.SkipPermutation = true
	l, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.N()
	lowHalf := 0
	for _, u := range l.U {
		if u < n/2 {
			lowHalf++
		}
	}
	frac := float64(lowHalf) / float64(l.Len())
	// Expected fraction with start vertex in the low half is A + B = 0.76.
	if math.Abs(frac-0.76) > 0.02 {
		t.Errorf("low-half start-vertex fraction = %.3f, want ~0.76", frac)
	}
}

func TestPermutationPreservesDegreeMultiset(t *testing.T) {
	cfg := New(8, 11)
	raw := cfg
	raw.SkipPermutation = true
	a, err := Generate(raw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex relabeling is a bijection, so the multiset of out-degree
	// values must be identical between raw and permuted outputs.
	da := degreeHistogram(a, cfg.N())
	db := degreeHistogram(b, cfg.N())
	if len(da) != len(db) {
		t.Fatalf("degree histograms differ in support: %d vs %d", len(da), len(db))
	}
	for k, v := range da {
		if db[k] != v {
			t.Fatalf("degree %d count %d vs %d", k, v, db[k])
		}
	}
}

func degreeHistogram(l *edge.List, n uint64) map[int]int {
	deg := make([]int, n)
	for _, u := range l.U {
		deg[u]++
	}
	h := make(map[int]int)
	for _, d := range deg {
		h[d]++
	}
	return h
}

func TestGenerateToMatchesPermutedVertexStatistics(t *testing.T) {
	cfg := New(8, 21)
	sinkList := edge.NewList(int(cfg.M()))
	if err := GenerateTo(cfg, listWriter(sinkList)); err != nil {
		t.Fatal(err)
	}
	if uint64(sinkList.Len()) != cfg.M() {
		t.Fatalf("streamed %d edges, want %d", sinkList.Len(), cfg.M())
	}
	n := cfg.N()
	for i := 0; i < sinkList.Len(); i++ {
		u, v := sinkList.At(i)
		if u >= n || v >= n {
			t.Fatalf("streamed edge (%d,%d) out of range", u, v)
		}
	}
	// The streamed variant uses the same edge randomness and the same
	// permutation stream as Generate; only the final shuffle differs, so
	// the edge multisets must be identical.
	full, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full.SameMultiset(sinkList) {
		t.Error("GenerateTo and Generate disagree on the edge multiset")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{Scale: -1}); err == nil {
		t.Error("Generate accepted invalid config")
	}
	if err := GenerateTo(Config{Scale: -1}, listWriter(edge.NewList(0))); err == nil {
		t.Error("GenerateTo accepted invalid config")
	}
}

func TestSelfLoopsAndDuplicatesExpected(t *testing.T) {
	// The paper notes the generator produces duplicate edges ("collisions")
	// and diagonal entries; verify both occur at moderate scale.
	cfg := New(10, 13)
	l, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := l.Counts()
	if len(counts) >= l.Len() {
		t.Error("expected duplicate edges in Kronecker output, found none")
	}
	selfLoops := 0
	for i := 0; i < l.Len(); i++ {
		u, v := l.At(i)
		if u == v {
			selfLoops++
		}
	}
	if selfLoops == 0 {
		t.Error("expected some self-loop edges, found none")
	}
}

func BenchmarkGenerateScale12(b *testing.B) {
	cfg := New(12, 1)
	b.SetBytes(int64(cfg.M()))
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// batchWriter is a fastio.EdgeSink that GenerateTo accepts.  Its WriteEdge
// is never called: GenerateTo hands a fastio.EdgeSink whole batches.  It
// records the size of each batch and counts flushes; failAt > 0 fails the
// failAt-th batch, and failFlush every Flush.
type batchWriter struct {
	fastiotest.ListSink
	sizes     []int
	flushes   int
	failAt    int
	failFlush bool
	// goroutines is the most goroutines running during a WriteEdges call.
	goroutines int
}

var errSink = errors.New("sink failed")

func (w *batchWriter) WriteEdges(l *edge.List, lo, hi int) error {
	w.sizes = append(w.sizes, hi-lo)
	w.goroutines = max(w.goroutines, runtime.NumGoroutine())
	if len(w.sizes) == w.failAt {
		return errSink
	}
	return w.ListSink.WriteEdges(l, lo, hi)
}

func (w *batchWriter) Flush() error {
	w.flushes++
	if w.failFlush {
		return errSink
	}
	return nil
}

func (*batchWriter) WriteEdge(u, v uint64) error {
	panic("GenerateTo wrote a fastio.EdgeSink edge by edge")
}

// listWriter returns a batchWriter appending to l.
func listWriter(l *edge.List) *batchWriter { return &batchWriter{ListSink: fastiotest.ListSink{L: l}} }

// perEdgeWriter has only the per-edge shape of GenerateTo's parameter.
type perEdgeWriter struct {
	l       *edge.List
	flushes int
}

func (w *perEdgeWriter) WriteEdge(u, v uint64) error {
	w.l.Append(u, v)
	return nil
}

func (w *perEdgeWriter) Flush() error {
	w.flushes++
	return nil
}

// TestGenerateToPerEdgeWriter pins GenerateTo's per-edge seam: a writer
// with only WriteEdge and Flush receives exactly the edges whose hashes
// TestGenerateGolden pins for GenerateTo, then one Flush, at every width.
// The benchmark harness keeps the seam alive at two call sites in
// bench/replay.go: replayExtsort passes GenerateTo a fastio.StripedSink,
// and probe passes it discard, a writer with only WriteEdge and Flush.  A
// fastio.EdgeSink gets the serial loop's batch sizes at every width and
// chunk size: full batches, then the remainder.
func TestGenerateToPerEdgeWriter(t *testing.T) {
	for _, c := range goldenCases {
		for _, raw := range []bool{false, true} {
			cfg := c.cfg
			cfg.SkipPermutation = raw
			key := c.name + "/perm/GenerateTo"
			if raw {
				key = c.name + "/raw/GenerateTo"
			}
			var serial []int
			for left := int(cfg.M()); left > 0; left -= generateToBatch {
				serial = append(serial, min(left, generateToBatch))
			}
			for _, workers := range []int{1, 2, 8} {
				for _, chunk := range []int{chunkEdges, 1000} {
					cfg.Workers = workers
					at := fmt.Sprintf("%s at %d workers, chunks of %d", key, workers, chunk)
					w := &perEdgeWriter{l: edge.NewList(0)}
					if err := generateTo(cfg, w, chunk); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if got := hashList(w.l); got != goldenHashes[key] || w.flushes != 1 {
						t.Errorf("%s: %#016x after %d flushes, golden %#016x after 1", at, got, w.flushes, goldenHashes[key])
					}
					b := listWriter(edge.NewList(0))
					if err := generateTo(cfg, b, chunk); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if !slices.Equal(b.sizes, serial) || b.flushes != 1 {
						t.Errorf("%s: batches %v after %d flushes, want %v after 1", at, b.sizes, b.flushes, serial)
					}
				}
			}
		}
	}
}

// TestGenerateToSinkError: a sink that fails its k-th batch, or its
// Flush, gets no call after the failing one, and GenerateTo returns its
// error with every sampler returned, whether the samplers are running
// ahead or waiting on a full ring.  One worker starts no goroutine.
func TestGenerateToSinkError(t *testing.T) {
	cfg := Config{Scale: 15, Seed: 5, EdgeFactor: 3}.Defaults() // 24 batches
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{chunkEdges, 1000} {
			for _, failAt := range []int{1, 2, 9, 24, 0} {
				cfg.Workers = workers
				at := fmt.Sprintf("%d workers, chunks of %d, failing batch %d", workers, chunk, failAt)
				w := listWriter(edge.NewList(0))
				w.failAt, w.failFlush = failAt, failAt == 0
				if err := generateTo(cfg, w, chunk); !errors.Is(err, errSink) {
					t.Errorf("%s: returned %v, want the sink's error", at, err)
				}
				if failAt > 0 && (len(w.sizes) != failAt || w.flushes != 0) {
					t.Errorf("%s: %d batches and %d flushes, want %d and 0", at, len(w.sizes), w.flushes, failAt)
				}
				if failAt == 0 && (len(w.sizes) != 24 || w.flushes != 1) {
					t.Errorf("%s: %d batches and %d flushes, want 24 and 1", at, len(w.sizes), w.flushes)
				}
				if workers == 1 && w.goroutines != base {
					t.Errorf("%s: %d goroutines during a write, %d before: one worker started one", at, w.goroutines, base)
				}
				waitForGoroutines(t, base)
			}
		}
	}
}

// waitForGoroutines polls until the live goroutine count returns to at
// most want: a sampler may still be exiting when GenerateTo returns.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: have %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// Package kronecker implements the Graph500 Kronecker graph generator used
// by kernel 0 of the PageRank pipeline benchmark.
//
// The generator is the stochastic Kronecker ("R-MAT style") recursive
// quadrant sampler from the Graph500 reference implementation: for each of
// the S bit levels of a scale-S graph, an edge's endpoints gain one bit
// each, chosen with initiator probabilities (A, B, C, D) = (0.57, 0.19,
// 0.19, 0.05).  The paper fixes the edge factor at k = 16, giving
// N = 2^S vertices and M = k·N edges.  Following the Graph500 kernel,
// vertex labels are scrambled with a random permutation and the edge order
// is shuffled, so the output carries no accidental structure for kernel 1's
// sort to exploit.
//
// Generation is reproducible: the same Config always produces the same edge
// list, at every Config.Workers.  Generate's workers sample chunks of one
// stream, each starting at a jump-derived state (xrand.Leap), the Graph500
// "no communication between processors" property with the serial bits.
// GenerateParallel is reproducible for a fixed worker count only: each of
// its workers draws from its own stream, seeded from (seed, worker) by
// xrand.NewSeeded.
package kronecker

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/xrand"
)

// Graph500 initiator probabilities.
const (
	DefaultA = 0.57
	DefaultB = 0.19
	DefaultC = 0.19
	DefaultD = 0.05
)

// DefaultEdgeFactor is the paper's k = 16 average edges per vertex.
const DefaultEdgeFactor = 16

// MaxScale bounds the accepted scale so that N = 2^S fits comfortably in
// int/uint64 arithmetic on all platforms.
const MaxScale = 40

// Config parameterizes the generator.  The zero value is not valid; use
// New or fill Scale and call Defaults.
type Config struct {
	// Scale is the Graph500 integer scale factor S; N = 2^S.
	Scale int
	// EdgeFactor is the average number of edges per vertex (k, default 16).
	EdgeFactor int
	// A, B, C, D are the Kronecker initiator probabilities; they must be
	// positive and sum to 1.  Zero values select the Graph500 defaults.
	A, B, C, D float64
	// Seed selects the random stream.
	Seed uint64
	// SkipPermutation disables the vertex relabeling and edge shuffle.
	// The raw Kronecker output is useful for validation because vertex
	// popularity then decreases with label value.
	SkipPermutation bool
	// Workers is Generate's width: its sampling and edge shuffle run on
	// this many goroutines, and the edge list is the same at every width.
	// <= 0 means GOMAXPROCS.  GenerateTo is serial; GenerateParallel
	// takes its width as an argument.
	Workers int
}

// New returns a Config for the given scale and seed with all other fields
// at their Graph500 defaults.
func New(scale int, seed uint64) Config {
	return Config{Scale: scale, Seed: seed}.Defaults()
}

// Defaults returns a copy of c with zero fields replaced by the Graph500
// defaults.
func (c Config) Defaults() Config {
	if c.EdgeFactor == 0 {
		c.EdgeFactor = DefaultEdgeFactor
	}
	if c.A == 0 && c.B == 0 && c.C == 0 && c.D == 0 {
		c.A, c.B, c.C, c.D = DefaultA, DefaultB, DefaultC, DefaultD
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Scale < 1 || c.Scale > MaxScale {
		return fmt.Errorf("kronecker: scale %d out of range [1, %d]", c.Scale, MaxScale)
	}
	if c.EdgeFactor < 1 {
		return fmt.Errorf("kronecker: edge factor %d, want >= 1", c.EdgeFactor)
	}
	sum := c.A + c.B + c.C + c.D
	if c.A <= 0 || c.B <= 0 || c.C <= 0 || c.D <= 0 || sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("kronecker: initiator probabilities (%v, %v, %v, %v) must be positive and sum to 1", c.A, c.B, c.C, c.D)
	}
	return nil
}

// N returns the number of vertices, 2^Scale.
func (c Config) N() uint64 { return 1 << uint(c.Scale) }

// M returns the number of edges, EdgeFactor · N.
func (c Config) M() uint64 {
	cc := c.Defaults()
	return uint64(cc.EdgeFactor) << uint(cc.Scale)
}

// sampler holds the per-level quadrant sampling constants derived from the
// initiator matrix, matching the Graph500 Octave kernel:
//
//	ab     = A + B
//	cNorm  = C / (1 - (A+B))
//	aNorm  = A / (A+B)
//	iiBit  = rand > ab
//	jjBit  = rand > (iiBit ? cNorm : aNorm)
//
// where rand is k·2⁻⁵³ for a 53-bit integer k, the top bits of one
// generator word.  Both k·2⁻⁵³ and p·2⁵³ are exact in float64, and for an
// integer k, k > p·2⁵³ exactly when k > ⌊p·2⁵³⌋; so each comparison is
// held as the integer threshold ⌊p·2⁵³⌋ and decided by the sign bit of
// (threshold − k), with no float conversion and no branch.
type sampler struct {
	scale int
	ab    uint64 // threshold of iiBit
	aNorm uint64 // threshold of jjBit when iiBit is 0 ...
	cStep uint64 // ... plus this (mod 2⁶⁴) when it is 1: cNorm − aNorm
}

func newSampler(c Config) sampler {
	aNorm := threshold(c.A / (c.A + c.B))
	return sampler{
		scale: c.Scale,
		ab:    threshold(c.A + c.B),
		aNorm: aNorm,
		cStep: threshold(c.C/(1-(c.A+c.B))) - aNorm,
	}
}

// threshold returns the T for which float64(k)·2⁻⁵³ > p ⇔ k > T holds for
// every k < 2⁵³.  p is positive (Config.Validate); no k exceeds a p ≥ 1.
func threshold(p float64) uint64 {
	if !(p < 1) {
		return 1 << 53
	}
	return uint64(p * (1 << 53))
}

// sampleWords bounds the generator words drawn per batch (16 KiB, so the
// batch stays in L1): 2·Scale words make one edge.
const sampleWords = 2048

// sample draws len(us) edges from g into us and vs, labelled through perm
// unless it is nil.  Level b of an edge consumes two consecutive words of
// g's sequence, the start-vertex bit first, so the stream — and with it
// the edge list — is the one 2·Scale·len(us) calls of g.Float64 produced.
func (s sampler) sample(g *xrand.Xoshiro256, us, vs, perm []uint64) {
	var words [sampleWords]uint64
	per := 2 * s.scale
	for len(us) > 0 {
		n := min(len(us), sampleWords/per)
		w := words[:n*per]
		g.Fill(w)
		for e := 0; e < n; e++ {
			// Highest level first, so each level shifts the lower ones in.
			var u, v uint64
			for lvl := w[e*per : (e+1)*per]; len(lvl) >= 2; lvl = lvl[:len(lvl)-2] {
				ii := (s.ab - lvl[len(lvl)-2]>>11) >> 63
				jj := (s.aNorm + s.cStep&-ii - lvl[len(lvl)-1]>>11) >> 63
				u = u<<1 | ii
				v = v<<1 | jj
			}
			if perm != nil {
				u, v = perm[u], perm[v]
			}
			us[e], vs[e] = u, v
		}
		us, vs = us[n:], vs[n:]
	}
}

// chunkEdges is the number of edges a Generate worker samples per chunk
// taken from the counter.
const chunkEdges = 1 << 16

// Generate produces the complete edge list for cfg, cfg.Workers wide.
// The list is the serial sampler's and shuffle's at every width.
func Generate(cfg Config) (*edge.List, error) { return generate(cfg, chunkEdges) }

// generate is Generate sampling chunks of chunk edges.
func generate(cfg Config, chunk int) (*edge.List, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	l := edge.Make(int(cfg.M()))
	newSampler(cfg).sampleChunks(xrand.NewSeeded(cfg.Seed, 0), l.U, l.V, labels(cfg), workers, chunk)
	if !cfg.SkipPermutation {
		g := xrand.NewSeeded(cfg.Seed, shuffleStream)
		if workers > 1 && l.Len() > drawBlock {
			shuffleAhead(l, g)
		} else {
			l.Shuffle(g)
		}
	}
	return l, nil
}

// sampleChunks is sample(g, us, vs, perm) on up to workers goroutines,
// the caller among them, which take chunks of chunk edges from a counter.
// Edge e takes words 2·Scale·e onwards of g's sequence, so chunk c starts
// chunk·2·Scale words in: at the state one Leap of that many steps after
// chunk c−1's.  Every chunk is sampled from the words the serial loop
// gives it, so the lists are sample's at every width and interleaving.
// One worker samples straight through, with no Leap and no goroutine.
func (s sampler) sampleChunks(g *xrand.Xoshiro256, us, vs, perm []uint64, workers, chunk int) {
	m := len(us)
	chunks := (m + chunk - 1) / chunk
	if workers = min(workers, chunks); workers <= 1 {
		s.sample(g, us, vs, perm)
		return
	}
	starts := make([]xrand.Xoshiro256, chunks)
	leap := xrand.LeapOf(uint64(2 * s.scale * chunk))
	for c := range starts {
		if c > 0 {
			g.Leap(leap)
		}
		starts[c] = *g
	}
	var next atomic.Int64
	work := func() {
		for c := int(next.Add(1) - 1); c < chunks; c = int(next.Add(1) - 1) {
			lo, hi := c*chunk, min((c+1)*chunk, m)
			g := starts[c] // a private copy: no two workers write one cache line
			s.sample(&g, us[lo:hi], vs[lo:hi], perm)
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// drawBlock is the number of shuffle indices shuffleAhead draws per block.
const drawBlock = 1 << 12

// shuffleAhead is l.Shuffle(g) with the draws and the swaps on two
// goroutines: a helper draws the indices j = g.Uint64n(i+1) for
// i = M−1, …, 1 in blocks, in Shuffle's order, while the caller swaps
// edge i with edge j block by block.  The draws are Shuffle's, so the
// permutation is too; the swaps, which miss the cache, no longer wait on
// the generator.
func shuffleAhead(l *edge.List, g *xrand.Xoshiro256) {
	// One block being drawn, one queued, one being swapped; each channel
	// holds all of them, so no send blocks.
	const blocks = 3
	free, full := make(chan []uint64, blocks), make(chan []uint64, blocks)
	for range blocks {
		free <- make([]uint64, drawBlock)
	}
	n := l.Len()
	go func() {
		for i := n - 1; i > 0; {
			b := (<-free)[:min(i, drawBlock)]
			for k := range b {
				b[k] = g.Uint64n(uint64(i - k + 1))
			}
			i -= len(b)
			full <- b
		}
		close(full)
	}()
	u, v := l.U, l.V[:n]
	i := n - 1
	for b := range full {
		for _, j := range b {
			u[i], u[j] = u[j], u[i]
			v[i], v[j] = v[j], v[i]
			i--
		}
		free <- b[:cap(b)]
	}
}

// GenerateParallel produces the edge list using the given number of worker
// goroutines, each drawing from an independent random stream.  workers <= 0
// selects GOMAXPROCS.  Output is deterministic for a fixed (cfg, workers).
func GenerateParallel(cfg Config, workers int) (*edge.List, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := int(cfg.M())
	if workers > m {
		workers = m
	}
	l := edge.Make(m)
	s := newSampler(cfg)
	perm := labels(cfg)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * m / workers
		hi := (w + 1) * m / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			s.sample(xrand.NewSeeded(cfg.Seed, uint64(w)+1), l.U[lo:hi], l.V[lo:hi], perm)
		}(w, lo, hi)
	}
	wg.Wait()
	if !cfg.SkipPermutation {
		l.Shuffle(xrand.NewSeeded(cfg.Seed, shuffleStream))
	}
	return l, nil
}

// labels returns the Graph500 vertex relabelling of cfg — vertex x is
// emitted as labels[x] — or nil when cfg skips the permutation.
func labels(cfg Config) []uint64 {
	if cfg.SkipPermutation {
		return nil
	}
	return xrand.NewSeeded(cfg.Seed, permStream).Perm(int(cfg.N()))
}

// Reserved stream indices for the finishing steps, far from worker streams.
const (
	permStream    = 1<<63 + 1
	shuffleStream = 1<<63 + 2
)

// generateToBatch is the number of edges GenerateTo samples between
// hand-offs to its sink.
const generateToBatch = 4096

// EdgeWriter is GenerateTo's sink.  A fastio.EdgeSink (a fastio.StripedSink,
// say) is handed generateToBatch edges per call; any other writer gets them
// one WriteEdge at a time.  The per-edge shape is the one such seam left
// outside fastio: the benchmark harness passes GenerateTo a writer with only
// WriteEdge and Flush (bench/replay.go's generator probe) as well as a
// StripedSink.  It goes with GenerateTo (ROADMAP 10c: one streaming
// kernel 0).
type EdgeWriter interface {
	WriteEdge(u, v uint64) error
	Flush() error
}

// GenerateTo streams the edges of cfg directly into sink without
// materializing the full edge list, the entry point for the out-of-core
// variant.  The vertex permutation (N uint64 words) is still applied — it
// fits in memory whenever the benchmark itself is feasible — but the edge
// shuffle is skipped: the Kronecker stream is already unordered with respect
// to the start vertex, which is all kernel 1 needs.
func GenerateTo(cfg Config, sink EdgeWriter) error {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	perm := labels(cfg)
	g := xrand.NewSeeded(cfg.Seed, 0)
	s := newSampler(cfg)
	batch := edge.Make(generateToBatch)
	for left := cfg.M(); left > 0; {
		n := int(min(left, generateToBatch))
		s.sample(g, batch.U[:n], batch.V[:n], perm)
		if err := writeBatch(sink, batch, n); err != nil {
			return err
		}
		left -= uint64(n)
	}
	return sink.Flush()
}

// writeBatch hands sink the first n edges of batch: in one call when sink
// is a fastio.EdgeSink, edge by edge otherwise.
func writeBatch(sink EdgeWriter, batch *edge.List, n int) error {
	if s, ok := sink.(fastio.EdgeSink); ok {
		return fastio.WriteEdges(s, batch, 0, n)
	}
	for i := range n {
		if err := sink.WriteEdge(batch.U[i], batch.V[i]); err != nil {
			return err
		}
	}
	return nil
}

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
// list, and GenerateParallel is reproducible for a fixed worker count (each
// worker draws from an independent jump-derived stream, the Graph500
// "no communication between processors" property).
package kronecker

import (
	"fmt"
	"runtime"
	"sync"

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

// Generate produces the complete edge list for cfg serially.
func Generate(cfg Config) (*edge.List, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := edge.Make(int(cfg.M()))
	newSampler(cfg).sample(xrand.NewSeeded(cfg.Seed, 0), l.U, l.V, labels(cfg))
	finish(cfg, l)
	return l, nil
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
	finish(cfg, l)
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

// finish applies the Graph500 edge shuffle to a list sampled through
// labels(cfg).
func finish(cfg Config, l *edge.List) {
	if !cfg.SkipPermutation {
		l.Shuffle(xrand.NewSeeded(cfg.Seed, shuffleStream))
	}
}

// Reserved stream indices for the finishing steps, far from worker streams.
const (
	permStream    = 1<<63 + 1
	shuffleStream = 1<<63 + 2
)

// generateToBatch is the number of edges GenerateTo samples between
// hand-offs to its sink.
const generateToBatch = 4096

// GenerateTo streams the edges of cfg directly into sink without
// materializing the full edge list, the entry point for the out-of-core
// variant.  The vertex permutation (N uint64 words) is still applied — it
// fits in memory whenever the benchmark itself is feasible — but the edge
// shuffle is skipped: the Kronecker stream is already unordered with respect
// to the start vertex, which is all kernel 1 needs.
func GenerateTo(cfg Config, sink fastio.EdgeSink) error {
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
		if err := fastio.WriteEdges(sink, batch, 0, n); err != nil {
			return err
		}
		left -= uint64(n)
	}
	return sink.Flush()
}

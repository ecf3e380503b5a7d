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
// list, at every Config.Workers.  Generate and GenerateTo sample chunks of
// one stream on a workteam.Ring, each chunk starting at a state derived by
// jump-ahead (xrand.Leap) as it is put, the Graph500 "no communication
// between processors" property with the serial bits; GenerateTo hands the
// chunks to its sink in stream order.  Generate's shuffle draws its indices
// on a one-goroutine ring while the caller swaps, or, at one worker, on
// the caller between its swaps.
package kronecker

import (
	"fmt"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/workteam"
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
	// Workers is Generate's and GenerateTo's width: their sampling (and
	// Generate's edge shuffle) run on this many goroutines, and the edges
	// are the same at every width.  <= 0 means GOMAXPROCS.
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

// chunkEdges is the number of edges a goroutine samples per chunk, in
// Generate and GenerateTo alike.
const chunkEdges = 1 << 14

// Generate produces the complete edge list for cfg, cfg.Workers wide.
// The list is the serial sampler's and shuffle's at every width.
func Generate(cfg Config) (*edge.List, error) { return generate(cfg, chunkEdges) }

// generate is Generate sampling chunks of chunk edges.
func generate(cfg Config, chunk int) (*edge.List, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := int(cfg.M())
	l := edge.Make(m)
	s, g, perm := newSampler(cfg), xrand.NewSeeded(cfg.Seed, 0), labels(cfg)
	s.sampleRing(g, uint64(m), chunk, ringWidth(cfg, chunk), perm, func(c, n int) ([]uint64, []uint64) {
		return l.U[c*chunk : c*chunk+n], l.V[c*chunk : c*chunk+n]
	}, nil)
	if !cfg.SkipPermutation {
		shuffleAhead(l, xrand.NewSeeded(cfg.Seed, shuffleStream), cfg.Workers)
	}
	return l, nil
}

// ringWidth is the goroutines cfg's sampling runs on in chunks of chunk
// edges: cfg.Workers wide, and no wider than its chunks.
func ringWidth(cfg Config, chunk int) int {
	chunks := (cfg.M() + uint64(chunk) - 1) / uint64(chunk)
	return int(min(uint64(workteam.Width(cfg.Workers)), chunks))
}

// sampleRing samples the m edges of g's stream in chunks of chunk edges on
// a workteam.Wide ring of workers (inline at one): chunk c, of n edges,
// into into(c, n), which may be its slot, c mod workteam.WideSlots(workers).
// The caller hands each chunk to done, when it is not nil, in chunk order;
// the chunk's slot is free again once done returns.  Edge e takes words
// 2·Scale·e onwards of the stream, so chunk c starts one Leap of
// 2·Scale·chunk steps after chunk c − 1: the caller derives each start
// state as it puts the chunk, and each chunk is sampled from the words the
// serial loop gives it, at every width.  done's first error stops the
// ring and is returned.
func (s sampler) sampleRing(g *xrand.Xoshiro256, m uint64, chunk, workers int, perm []uint64,
	into func(c, n int) (us, vs []uint64), done func(c, n int) error) error {
	chunks := int((m + uint64(chunk) - 1) / uint64(chunk))
	edges := func(c int) int { return int(min(m-uint64(c)*uint64(chunk), uint64(chunk))) }
	var starts []xrand.Xoshiro256 // each slot's start state
	r := workteam.Wide(workers, func(c int) {
		us, vs := into(c, edges(c))
		s.sample(&starts[c%len(starts)], us, vs, perm)
	})
	starts = make([]xrand.Xoshiro256, r.Slots())
	leap := xrand.LeapOf(uint64(2 * s.scale * chunk))
	var err error
	for err == nil && (r.Next() < chunks || r.InFlight() > 0) {
		if c := r.Next(); c < chunks && r.InFlight() < len(starts) {
			starts[c%len(starts)] = *g
			g.Leap(leap)
			r.Put()
		} else if c = r.Wait(); done != nil {
			err = done(c, edges(c))
		}
	}
	r.Close()
	return err
}

// drawBlock is the number of shuffle indices shuffleAhead draws per block.
const drawBlock = 1 << 12

// shuffleAhead is l.Shuffle(g) with the draws and the swaps on two
// goroutines: a one-goroutine ring draws the indices j = g.Uint64n(i+1)
// for i = M−1, …, 1 in blocks, in Shuffle's order, while the caller swaps
// edge i with edge j block by block.  The draws are Shuffle's, so the
// permutation is too; the swaps, which miss the cache, no longer wait on
// the generator.  At one worker, or on one block, the ring is inline:
// the caller draws a block, then swaps it.
func shuffleAhead(l *edge.List, g *xrand.Xoshiro256, workers int) {
	n := l.Len()
	blocks := (n - 1 + drawBlock - 1) / drawBlock
	// Block c draws for i = n−1−c·drawBlock downwards.
	draws := func(c int) int { return min(n-1-c*drawBlock, drawBlock) }
	goroutines, slots := 0, 1
	if workteam.Width(workers) > 1 && blocks > 1 {
		goroutines, slots = 1, 3 // one block being drawn, one queued, one being swapped
	}
	bufs := make([][]uint64, slots)
	for k := range bufs {
		bufs[k] = make([]uint64, min(n, drawBlock))
	}
	r := workteam.NewRing(goroutines, slots, func(c int) {
		b, i := bufs[c%len(bufs)][:draws(c)], n-1-c*drawBlock
		for k := range b {
			b[k] = g.Uint64n(uint64(i - k + 1))
		}
	})
	u, v := l.U, l.V[:n]
	i := n - 1
	for r.Next() < blocks || r.InFlight() > 0 {
		if r.Next() < blocks && r.InFlight() < len(bufs) {
			r.Put()
			continue
		}
		c := r.Wait()
		for _, j := range bufs[c%len(bufs)][:draws(c)] {
			u[i], u[j] = u[j], u[i]
			v[i], v[j] = v[j], v[i]
			i--
		}
	}
	r.Close()
}

// labels returns the Graph500 vertex relabelling of cfg — vertex x is
// emitted as labels[x] — or nil when cfg skips the permutation.
func labels(cfg Config) []uint64 {
	if cfg.SkipPermutation {
		return nil
	}
	return xrand.NewSeeded(cfg.Seed, permStream).Perm(int(cfg.N()))
}

// Reserved stream indices for the finishing steps, apart from the sampling
// stream 0.  Every shuffled edge list depends on their values.
const (
	permStream    = 1<<63 + 1
	shuffleStream = 1<<63 + 2
)

// generateToBatch is the number of edges GenerateTo hands its sink per
// call, the last call excepted.
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
//
// Sampling runs cfg.Workers wide, ahead of the sink; the sink is called
// from GenerateTo's goroutine only, with the same edges and calls at
// every width.
func GenerateTo(cfg Config, sink EdgeWriter) error { return generateTo(cfg, sink, chunkEdges) }

// generateTo is GenerateTo sampling chunks of chunk edges.
func generateTo(cfg Config, sink EdgeWriter, chunk int) error {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	perm, g, s, m := labels(cfg), xrand.NewSeeded(cfg.Seed, 0), newSampler(cfg), cfg.M()
	workers := ringWidth(cfg, chunk)
	// Chunk c is sampled into slot c mod the ring's slots.
	slots := make([]*edge.List, workteam.WideSlots(workers))
	for k := range slots {
		slots[k] = edge.Make(int(min(uint64(chunk), m)))
	}
	h := handOff{sink: sink, carry: edge.NewList(generateToBatch)}
	if err := s.sampleRing(g, m, chunk, workers, perm, func(c, n int) ([]uint64, []uint64) {
		return slots[c%len(slots)].U[:n], slots[c%len(slots)].V[:n]
	}, func(c, n int) error {
		return h.write(slots[c%len(slots)], n)
	}); err != nil {
		return err
	}
	return h.flush()
}

// handOff passes runs of edges to a sink in calls of generateToBatch
// edges, carrying a partial batch from one run into the next.
type handOff struct {
	sink  EdgeWriter
	carry *edge.List // the start of a batch the next run completes
}

// write passes the first n edges of l on.
func (h *handOff) write(l *edge.List, n int) error {
	lo := 0
	if k := h.carry.Len(); k > 0 {
		lo = min(generateToBatch-k, n)
		h.carry.U = append(h.carry.U, l.U[:lo]...)
		h.carry.V = append(h.carry.V, l.V[:lo]...)
		if h.carry.Len() < generateToBatch {
			return nil
		}
		if err := writeBatch(h.sink, h.carry, 0, generateToBatch); err != nil {
			return err
		}
		h.carry.Reset()
	}
	for ; n-lo >= generateToBatch; lo += generateToBatch {
		if err := writeBatch(h.sink, l, lo, lo+generateToBatch); err != nil {
			return err
		}
	}
	h.carry.U = append(h.carry.U, l.U[lo:n]...)
	h.carry.V = append(h.carry.V, l.V[lo:n]...)
	return nil
}

// flush passes the carried edges on and flushes the sink.
func (h *handOff) flush() error {
	if n := h.carry.Len(); n > 0 {
		if err := writeBatch(h.sink, h.carry, 0, n); err != nil {
			return err
		}
	}
	return h.sink.Flush()
}

// writeBatch hands sink edges [lo, hi) of l: in one call when sink is a
// fastio.EdgeSink, edge by edge otherwise.
func writeBatch(sink EdgeWriter, l *edge.List, lo, hi int) error {
	if s, ok := sink.(fastio.EdgeSink); ok {
		return fastio.WriteEdges(s, l, lo, hi)
	}
	for i := lo; i < hi; i++ {
		if err := sink.WriteEdge(l.U[i], l.V[i]); err != nil {
			return err
		}
	}
	return nil
}

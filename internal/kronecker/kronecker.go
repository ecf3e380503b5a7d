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
// list, at every Config.Workers.  Generate's and GenerateTo's workers sample
// chunks of one stream, each starting at a jump-derived state (xrand.Leap),
// the Graph500 "no communication between processors" property with the
// serial bits; GenerateTo hands the chunks to its sink in stream order.
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

// chunkEdges is the number of edges a worker samples per chunk it is
// dealt, in Generate and GenerateTo alike.
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
	workers := cfg.width()
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

// width is the number of goroutines c.Workers asks for.
func (c Config) width() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// dealer hands out the chunks of one sample stream in order, each with
// the state it starts from.  Edge e takes words 2·Scale·e onwards of the
// stream, so chunk c starts chunk·2·Scale words in: at the state one Leap
// of that many steps after chunk c−1's.  Each chunk is then sampled from
// the words the serial loop gives it, at every width and interleaving.
// A start state is derived as its chunk is dealt, so a dealer holds one
// state however many chunks the stream has.
type dealer struct {
	mu     sync.Mutex
	raised sync.Cond        // limit rose, or the dealer stopped
	next   uint64           // the chunk deal hands out next
	limit  uint64           // deal waits while next is not below it
	chunks uint64           // chunks in the stream; 0 once stopped
	g      xrand.Xoshiro256 // chunk next's start state
	leap   xrand.Leap       // one chunk's steps
}

// newDealer returns a dealer of chunks chunks of chunk edges, the first
// starting at g's state, with no limit.
func (s sampler) newDealer(g *xrand.Xoshiro256, chunks uint64, chunk int) *dealer {
	d := &dealer{limit: chunks, chunks: chunks, g: *g, leap: xrand.LeapOf(uint64(2 * s.scale * chunk))}
	d.raised.L = &d.mu
	return d
}

// deal returns the next chunk and its start state, a private copy,
// waiting until the chunk is below the limit; ok is false once every
// chunk is dealt or the dealer is stopped.
func (d *dealer) deal() (c uint64, g xrand.Xoshiro256, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.next >= d.limit && d.next < d.chunks {
		d.raised.Wait()
	}
	if c = d.next; c >= d.chunks {
		return 0, g, false
	}
	g = d.g
	if d.next++; d.next < d.chunks {
		d.g.Leap(d.leap)
	}
	return c, g, true
}

// allow lets d deal the chunks below limit.
func (d *dealer) allow(limit uint64) {
	d.mu.Lock()
	d.limit = limit
	d.mu.Unlock()
	d.raised.Broadcast()
}

// stop makes every deal, waiting or to come, return ok false.
func (d *dealer) stop() {
	d.mu.Lock()
	d.chunks = 0
	d.mu.Unlock()
	d.raised.Broadcast()
}

// sampleChunks is sample(g, us, vs, perm) on up to workers goroutines,
// the caller among them, which are dealt chunks of chunk edges.  One
// worker samples straight through, with no Leap and no goroutine.
func (s sampler) sampleChunks(g *xrand.Xoshiro256, us, vs, perm []uint64, workers, chunk int) {
	m := len(us)
	chunks := (m + chunk - 1) / chunk
	if workers = min(workers, chunks); workers <= 1 {
		s.sample(g, us, vs, perm)
		return
	}
	d := s.newDealer(g, uint64(chunks), chunk)
	work := func() {
		for c, g, ok := d.deal(); ok; c, g, ok = d.deal() {
			lo := int(c) * chunk
			hi := min(lo+chunk, m)
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
// call, the last call excepted; its serial loop samples that many a time.
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
// from GenerateTo's goroutine only, with the edges and the calls the
// serial loop makes, at every width.
func GenerateTo(cfg Config, sink EdgeWriter) error { return generateTo(cfg, sink, chunkEdges) }

// generateTo is GenerateTo sampling chunks of chunk edges.
func generateTo(cfg Config, sink EdgeWriter, chunk int) error {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	perm := labels(cfg)
	g := xrand.NewSeeded(cfg.Seed, 0)
	s := newSampler(cfg)
	m := cfg.M()
	chunks := (m + uint64(chunk) - 1) / uint64(chunk)
	if workers := min(uint64(cfg.width()), chunks); workers > 1 {
		return s.sampleTo(s.newDealer(g, chunks, chunk), m, perm, sink, int(workers), chunk)
	}
	batch := edge.Make(generateToBatch)
	for left := m; left > 0; {
		n := int(min(left, generateToBatch))
		s.sample(g, batch.U[:n], batch.V[:n], perm)
		if err := writeBatch(sink, batch, 0, n); err != nil {
			return err
		}
		left -= uint64(n)
	}
	return sink.Flush()
}

// slot is one chunk's place in sampleTo's ring.
type slot struct {
	l     *edge.List
	n     int           // edges of the chunk in l
	ready chan struct{} // a sampler has filled l
}

// sampleTo hands the m edges of d's stream to sink in order and flushes
// it.  workers goroutines sample the chunks d deals into a ring of
// 2·workers slots, chunk c into slot c mod 2·workers, while the caller
// passes each filled slot to the sink in chunk order.  d deals chunk c
// only once the sink has had chunk c − 2·workers, whose slot it reuses,
// so the samplers run at most a ring ahead of the sink.  A sink error
// stops the dealer, which releases a sampler waiting on it; every sampler
// has returned before sampleTo does.
func (s sampler) sampleTo(d *dealer, m uint64, perm []uint64, sink EdgeWriter, workers, chunk int) error {
	chunks, ring := d.chunks, make([]slot, 2*workers)
	for i := range ring {
		// One send per chunk the slot holds, received before the slot is
		// dealt again: a buffer of one never blocks a sampler.
		ring[i] = slot{l: edge.Make(chunk), ready: make(chan struct{}, 1)}
	}
	d.allow(uint64(len(ring)))
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c, g, ok := d.deal(); ok; c, g, ok = d.deal() {
				sl := &ring[c%uint64(len(ring))]
				sl.n = int(min(m-c*uint64(chunk), uint64(chunk)))
				s.sample(&g, sl.l.U[:sl.n], sl.l.V[:sl.n], perm)
				sl.ready <- struct{}{}
			}
		}()
	}
	h := handOff{sink: sink, carry: edge.NewList(generateToBatch)}
	var err error
	for c := uint64(0); c < chunks && err == nil; c++ {
		sl := &ring[c%uint64(len(ring))]
		<-sl.ready
		err = h.write(sl.l, sl.n)
		d.allow(c + 1 + uint64(len(ring)))
	}
	d.stop()
	wg.Wait()
	if err != nil {
		return err
	}
	return h.flush()
}

// handOff passes runs of edges to a sink in calls of generateToBatch
// edges, as the serial loop does, carrying a partial batch from one run
// into the next.
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

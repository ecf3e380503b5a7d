package pagerank

// The reusable kernel-3 iteration engine.  Every serial engine builds on
// it; the distributed runtime (internal/dist) drives one
// per replica.  The point of the type is the allocation budget: all
// iteration state — the current and next rank vectors and the resolved
// option scalars — is allocated once at construction, so the steady-state
// Iterate performs zero heap allocations of its own (DESIGN.md §7).  The
// step and dangling-mass hooks own their allocation behavior; the engines
// in this package and in dist supply allocation-free hooks.

import (
	"context"
	"math"

	"repro/internal/sparse"
	"repro/internal/workteam"
)

// Engine holds the reusable state of the kernel-3 power iteration
//
//	r' = c·(r·A) + (1-c)·sum(r)·v + c·D(r)·w
//
// (the update NewEngine documents).  Construct it once with NewEngine,
// then either call Run to drive it to completion or call Iterate step by
// step.  Iterate allocates nothing, so a fixed-size problem iterates at a
// steady-state allocation rate of zero — the hybrid runtime's allocation
// budget depends on this.
type Engine struct {
	n          int
	step       func(out, r []float64)
	dangleMass func(r []float64) float64

	c        float64
	iters    int
	policy   DanglingPolicy
	teleport []float64
	tol      float64
	uniform  float64
	seed     uint64
	initial  []float64 // private snapshot of the option's InitialRank, for Reset
	progress func(iteration int)

	// label, when set, gives each vertex its element of r, next, teleport
	// and initial (the gather operand's position labels); nil keeps them
	// in vertex order.
	label    []uint32
	r, next  []float64
	it       int
	lastDiff float64
}

// NewEngine validates opt and builds an engine over the given step and
// dangling-mass hooks.  Each iteration computes
//
//	r' = c·(r·A) + (1-c)·sum(r)·v + c·D(r)·w
//
// where v is the teleport vector (uniform by default), and the dangling
// term D(r)·w depends on the policy: absent (ignore), uniform w (weakly
// preferential), or w = v (strongly preferential).
//
// step evaluates out = r·A and dangleMass returns D(r), the rank mass on
// zero-out-degree vertices (called only when a dangling policy is
// active; it may be nil otherwise).  Both are extension points: the
// serial engines supply a local product and a mask scan, while the
// distributed runtime (internal/dist) supplies a metered all-reduce
// product and a metered scalar reduction, so every engine shares these
// update semantics exactly.  The initial vector is materialized
// immediately — a copy of opt.InitialRank, or InitVector.
func NewEngine(n int, step func(out, r []float64), dangleMass func(r []float64) float64, opt Options) (*Engine, error) {
	return newEngine(n, nil, step, dangleMass, opt)
}

// newEngine is NewEngine over vectors in the given labels: step and
// dangleMass see r in label space, every reduction reads it through
// label in vertex order — so each one adds in the order it adds a
// vertex-order r in — and every vector handed out is in vertex order.
func newEngine(n int, label []uint32, step func(out, r []float64), dangleMass func(r []float64) float64, opt Options) (*Engine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := opt.ValidateN(n); err != nil {
		return nil, err
	}
	e := &Engine{
		n:          n,
		step:       step,
		dangleMass: dangleMass,
		c:          opt.damping(),
		iters:      opt.iterations(),
		policy:     opt.policy(),
		teleport:   permute(label, opt.Teleport),
		tol:        opt.Tolerance,
		uniform:    1 / float64(n),
		seed:       opt.Seed,
		progress:   opt.Progress,
		label:      label,
		r:          make([]float64, n),
		next:       make([]float64, n),
	}
	if opt.InitialRank != nil {
		// A private snapshot: Reset must reproduce the construction-time
		// vector even if the caller reuses its slice afterwards.
		e.initial = permute(label, opt.InitialRank)
	}
	e.Reset()
	return e, nil
}

// Reset rewinds the engine to iteration zero and re-materializes the
// initial vector in place (no allocation beyond InitVector's internals
// when no InitialRank was given).
func (e *Engine) Reset() {
	switch {
	case e.initial != nil:
		copy(e.r, e.initial)
	case e.label == nil:
		initVectorInto(e.r, e.seed)
	default:
		initVectorInto(e.next, e.seed)
		for v, p := range e.label {
			e.r[p] = e.next[v]
		}
	}
	e.it = 0
	e.lastDiff = 0
}

// Iterations returns the number of update steps performed since the last
// Reset.
func (e *Engine) Iterations() int { return e.it }

// Rank returns the current rank vector, in vertex order.  The slice
// aliases engine state: it is overwritten by further Iterate calls.  A
// labelled engine un-permutes r into next, which the next product
// overwrites whole anyway, so Rank allocates nothing.
func (e *Engine) Rank() []float64 {
	if e.label == nil {
		return e.r
	}
	for v, p := range e.label {
		e.next[v] = e.r[p]
	}
	return e.next
}

// Iterate performs exactly one update step and returns the 1-norm
// difference between the new and previous iterates when a tolerance is
// configured (0 otherwise — the fixed-iteration benchmark mode skips the
// comparison).  It does not enforce the iteration cap; Run does.
// Iterate itself performs no heap allocations.  The float64 conversions
// round every product before it is added, so FMA architectures compute
// the bits amd64 does (DESIGN.md §4).
func (e *Engine) Iterate() float64 {
	sumR := e.sum()
	e.step(e.next, e.r)
	var dangle float64
	if e.policy != DanglingIgnore {
		dangle = e.dangleMass(e.r)
	}
	teleMass := (1 - e.c) * sumR
	next := e.next
	switch {
	case e.teleport == nil && e.policy != DanglingTeleport:
		// Uniform teleport, uniform (or no) dangling redistribution:
		// a single scalar addend, the benchmark fast path.
		addend := float64(teleMass * e.uniform)
		if e.policy == DanglingUniform {
			addend += float64(e.c * dangle * e.uniform)
		}
		for j := range next {
			next[j] = float64(e.c*next[j]) + addend
		}
	default:
		v := e.teleport
		for j := range next {
			vj := e.uniform
			if v != nil {
				vj = v[j]
			}
			x := float64(e.c*next[j]) + float64(teleMass*vj)
			switch e.policy {
			case DanglingUniform:
				x += float64(e.c * dangle * e.uniform)
			case DanglingTeleport:
				x += float64(e.c * dangle * vj)
			}
			next[j] = x
		}
	}
	e.it++
	var diff float64
	if e.tol > 0 {
		diff = e.diff1()
		e.lastDiff = diff
	}
	e.r, e.next = e.next, e.r
	if e.progress != nil {
		e.progress(e.it)
	}
	return diff
}

// sum is sparse.Sum of r in vertex order.
func (e *Engine) sum() float64 {
	if e.label == nil {
		return sparse.Sum(e.r)
	}
	var s float64
	for _, p := range e.label {
		s += e.r[p]
	}
	return s
}

// diff1 is sparse.Diff1(next, r) in vertex order.
func (e *Engine) diff1() float64 {
	if e.label == nil {
		return sparse.Diff1(e.next, e.r)
	}
	var s float64
	for _, p := range e.label {
		s += math.Abs(e.next[p] - e.r[p])
	}
	return s
}

// permute returns a copy of v with each vertex's element at its label
// (in vertex order when label is nil); nil stays nil.
func permute(label []uint32, v []float64) []float64 {
	if v == nil || label == nil {
		return append([]float64(nil), v...)
	}
	out := make([]float64, len(v))
	for i, p := range label {
		out[p] = v[i]
	}
	return out
}

// Run drives Iterate up to the configured iteration count, stopping early
// once the tolerance (if any) is met.  The returned Result's Rank aliases
// the engine's current vector; callers that keep iterating the same
// engine must copy it first.  Run is RunContext under a background
// context — one stopping rule, written once.
func (e *Engine) Run() *Result {
	res, _ := e.RunContext(context.Background()) // a nil Done() can't error
	return res
}

// RunContext is Run with a cancellation point before every iteration: a
// context cancelled mid-run aborts with ctx.Err() instead of finishing
// the remaining iterations.  A background (never-cancelled) context makes
// it exactly Run — the check costs one nil comparison per iteration — so
// results are bit-for-bit identical between the two forms.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	return e.RunContextAfter(ctx, nil)
}

// RunContextAfter is RunContext with a post-iteration hook: after every
// completed update step, after is called with the number of steps
// performed so far and the current rank vector (Rank's, aliasing engine
// state — it must not be retained or modified), before the tolerance
// check, so the hook observes every iterate including a final
// tolerance-stopped one.  A non-nil error from the hook aborts the run with that error.
// The distributed runtime's checkpoint writer lives in this hook; a nil
// hook makes RunContextAfter exactly RunContext.
func (e *Engine) RunContextAfter(ctx context.Context, after func(it int, r []float64) error) (*Result, error) {
	done := ctx.Done()
	for e.it < e.iters {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		diff := e.Iterate()
		if after != nil {
			if err := after(e.it, e.Rank()); err != nil {
				return nil, err
			}
		}
		if e.tol > 0 && diff < e.tol {
			break
		}
	}
	return &Result{Rank: e.Rank(), Iterations: e.it, FinalDiff: e.lastDiff}, nil
}

// newMaskedEngine builds an engine whose dangling mass adds the
// dangling vertices' elements of r in ascending vertex order — the serial
// engines' shared construction.  mask is called only under an active
// dangling policy: Iterate never reads the mass under DanglingIgnore, so
// the benchmark definition pays neither the pass over the matrix that
// derives the mask nor its N-sized allocations.
func newMaskedEngine(n int, label []uint32, step func(out, r []float64), mask func() []bool, opt Options) (*Engine, error) {
	var dangling []uint32 // each dangling vertex's element of r
	if opt.policy() != DanglingIgnore {
		for v, d := range mask() {
			if !d {
				continue
			}
			p := uint32(v)
			if label != nil {
				p = label[v]
			}
			dangling = append(dangling, p)
		}
	}
	return newEngine(n, label, step, func(r []float64) float64 {
		var m float64
		for _, p := range dangling {
			m += r[p]
		}
		return m
	}, opt)
}

// NewScatterEngine builds a reusable engine over the CSR scatter product
// (the engine behind Scatter).
func NewScatterEngine(a *sparse.CSR, opt Options) (*Engine, error) {
	return newMaskedEngine(a.N, nil, a.VxM, danglingMask(a), opt)
}

// NewGatherEngine builds A's length-ordered transpose once and a reusable
// engine over the cache-friendlier serial gather product, in the
// operand's position labels (the engine behind Gather).
func NewGatherEngine(a *sparse.CSR, opt Options) (*Engine, error) {
	at := a.TransposeOrdered()
	y := make([]float64, at.Slots())
	step := func(out, r []float64) { at.MxV(out, r, y) }
	return newMaskedEngine(a.N, at.Label, step, danglingMask(a), opt)
}

// ---------------------------------------------------------------------------
// Parallel engine: transpose-once gather over a persistent worker team

// ParallelEngine is the gather engine on every core: a persistent
// sparse.Team computes the product over chunks of the length-ordered
// transpose, and the embedded Engine owns the iteration vectors — so
// steady-state iterations perform zero heap allocations while using every
// configured core.  Every term and every row is computed by one worker
// with the serial loop, so the bits are Gather's for every worker count.
// Close must be called when done.
type ParallelEngine struct {
	eng  *Engine
	team *sparse.Team
}

// NewParallelEngine validates opt and builds the reusable parallel engine
// over at = a.TransposeOrdered(), which the engine only reads: a caller
// that holds one — the matrix cache keeps one beside each resident
// matrix — passes it, and nil builds it.  The team is workers wide, <= 0
// meaning GOMAXPROCS.
func NewParallelEngine(a *sparse.CSR, at *sparse.Ordered, workers int, opt Options) (*ParallelEngine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := opt.ValidateN(a.N); err != nil {
		return nil, err
	}
	if at == nil {
		at = a.TransposeOrdered()
	}
	pe := &ParallelEngine{team: at.NewTeam(workteam.Width(workers))}
	eng, err := newMaskedEngine(a.N, at.Label, pe.team.MxV, danglingMask(a), opt)
	if err != nil {
		pe.Close()
		return nil, err
	}
	pe.eng = eng
	return pe, nil
}

// Engine returns the embedded iteration engine (for Iterate-level
// control and benchmarks).
func (pe *ParallelEngine) Engine() *Engine { return pe.eng }

// Run drives the engine to completion.
func (pe *ParallelEngine) Run() *Result { return pe.eng.Run() }

// RunContext drives the engine to completion with a per-iteration
// cancellation point, like Engine.RunContext.  The worker team survives
// an abort; Close still owns its teardown.
func (pe *ParallelEngine) RunContext(ctx context.Context) (*Result, error) {
	return pe.eng.RunContext(ctx)
}

// Close terminates the worker team.  The engine must not be iterated
// afterwards.
func (pe *ParallelEngine) Close() {
	if pe.team != nil {
		pe.team.Close()
		pe.team = nil
	}
}

package pagerank

// The reusable kernel-3 iteration engine.  RunCustom and every serial
// engine build on it; the distributed runtime (internal/dist) drives one
// per replica.  The point of the type is the allocation budget: all
// iteration state — the current and next rank vectors and the resolved
// option scalars — is allocated once at construction, so the steady-state
// Iterate performs zero heap allocations of its own (DESIGN.md §7).  The
// step and dangling-mass hooks own their allocation behavior; the engines
// in this package and in dist supply allocation-free hooks.

import (
	"context"

	"repro/internal/sparse"
)

// Engine holds the reusable state of the kernel-3 power iteration
//
//	r' = c·(r·A) + (1-c)·sum(r)·v + c·D(r)·w
//
// (the update RunCustom documents).  Construct it once with NewEngine,
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

	r, next  []float64
	it       int
	lastDiff float64
}

// NewEngine validates opt and builds an engine over the given step and
// dangling-mass hooks (see RunCustom for their contracts; dangleMass may
// be nil when no dangling policy is active).  The initial vector is
// materialized immediately — a copy of opt.InitialRank, or InitVector.
func NewEngine(n int, step func(out, r []float64), dangleMass func(r []float64) float64, opt Options) (*Engine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := opt.validateAgainstN(n); err != nil {
		return nil, err
	}
	e := &Engine{
		n:          n,
		step:       step,
		dangleMass: dangleMass,
		c:          opt.damping(),
		iters:      opt.iterations(),
		policy:     opt.policy(),
		teleport:   opt.Teleport,
		tol:        opt.Tolerance,
		uniform:    1 / float64(n),
		seed:       opt.Seed,
		progress:   opt.Progress,
		r:          make([]float64, n),
		next:       make([]float64, n),
	}
	if opt.InitialRank != nil {
		// A private snapshot: Reset must reproduce the construction-time
		// vector even if the caller reuses its slice afterwards.
		e.initial = append([]float64(nil), opt.InitialRank...)
	}
	e.Reset()
	return e, nil
}

// Reset rewinds the engine to iteration zero and re-materializes the
// initial vector in place (no allocation beyond InitVector's internals
// when no InitialRank was given).
func (e *Engine) Reset() {
	if e.initial != nil {
		copy(e.r, e.initial)
	} else {
		initVectorInto(e.r, e.seed)
	}
	e.it = 0
	e.lastDiff = 0
}

// Iterations returns the number of update steps performed since the last
// Reset.
func (e *Engine) Iterations() int { return e.it }

// Rank returns the current rank vector.  The slice aliases engine state:
// it is overwritten by further Iterate calls.
func (e *Engine) Rank() []float64 { return e.r }

// Iterate performs exactly one update step and returns the 1-norm
// difference between the new and previous iterates when a tolerance is
// configured (0 otherwise — the fixed-iteration benchmark mode skips the
// comparison).  It does not enforce the iteration cap; Run does.
// Iterate itself performs no heap allocations.  The float64 conversions
// round every product before it is added, so FMA architectures compute
// the bits amd64 does (DESIGN.md §4).
func (e *Engine) Iterate() float64 {
	sumR := sparse.Sum(e.r)
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
		diff = sparse.Diff1(e.next, e.r)
		e.lastDiff = diff
	}
	e.r, e.next = e.next, e.r
	if e.progress != nil {
		e.progress(e.it)
	}
	return diff
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
// performed so far and the current rank vector (aliasing engine state —
// it must not be retained or modified), before the tolerance check, so
// the hook observes every iterate including a final tolerance-stopped
// one.  A non-nil error from the hook aborts the run with that error.
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
			if err := after(e.it, e.r); err != nil {
				return nil, err
			}
		}
		if e.tol > 0 && diff < e.tol {
			break
		}
	}
	return &Result{Rank: e.r, Iterations: e.it, FinalDiff: e.lastDiff}, nil
}

// newMaskedEngine builds an engine whose dangling mass is a scan of the
// row mask — the serial engines' shared construction.  mask is called
// only under an active dangling policy: Iterate never reads the mask
// under DanglingIgnore, so the benchmark definition pays neither the pass
// over the matrix that derives it nor its N-sized allocations.
func newMaskedEngine(n int, step func(out, r []float64), mask func() []bool, opt Options) (*Engine, error) {
	var dangling []bool
	if opt.policy() != DanglingIgnore {
		dangling = mask()
	}
	return NewEngine(n, step, func(r []float64) float64 {
		var m float64
		for i, d := range dangling {
			if d {
				m += r[i]
			}
		}
		return m
	}, opt)
}

// NewScatterEngine builds a reusable engine over the CSR scatter product
// (the engine behind Scatter).
func NewScatterEngine(a *sparse.CSR, opt Options) (*Engine, error) {
	return newMaskedEngine(a.N, a.VxM, danglingMask(a), opt)
}

// NewGatherEngine builds A's length-ordered transpose once and a reusable
// engine over the cache-friendlier gather product (the engine behind
// Gather).
func NewGatherEngine(a *sparse.CSR, opt Options) (*Engine, error) {
	return NewGatherEngineWith(a, a.TransposeOrdered(), opt)
}

// NewGatherEngineWith is NewGatherEngine for a caller that already holds
// at = a.TransposeOrdered() — the staged cache keeps one beside each
// resident matrix — so repeated engines over one matrix transpose it
// once, not once each.  The engine only reads at.
func NewGatherEngineWith(a *sparse.CSR, at *sparse.Ordered, opt Options) (*Engine, error) {
	return newMaskedEngine(a.N, at.MxV, danglingMask(a), opt)
}

// ---------------------------------------------------------------------------
// Parallel engine: transpose-once gather over a persistent worker team

// ParallelEngine is the parallel gather engine in reusable form: the
// matrix is transposed once, a persistent sparse.Team computes the
// product over nnz-balanced position ranges, and the embedded Engine owns
// the iteration vectors — so steady-state iterations perform zero heap
// allocations while using every configured core.  Every row is computed
// by one worker with the serial loop, so the bits are Gather's for every
// worker count.  Close must be called when done (Parallel does).
type ParallelEngine struct {
	eng  *Engine
	team *sparse.Team
}

// NewParallelEngine validates opt and builds the reusable parallel engine.
// The worker count is Options.Workers (defaulted like Parallel); tiny
// problems degenerate to the serial gather.
func NewParallelEngine(a *sparse.CSR, opt Options) (*ParallelEngine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := opt.validateAgainstN(a.N); err != nil {
		return nil, err
	}
	at := a.TransposeOrdered()
	workers := workersOr(opt.Workers)
	pe := &ParallelEngine{}
	step := at.MxV
	if workers >= 2 && a.N >= 2*workers {
		pe.team = at.NewTeam(workers)
		step = pe.team.MxV
	}
	eng, err := newMaskedEngine(a.N, step, danglingMask(a), opt)
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

// Run drives the engine to completion, like Parallel.
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

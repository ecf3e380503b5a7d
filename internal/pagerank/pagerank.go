package pagerank

import (
	"fmt"
	"math"

	"repro/internal/graphblas"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Defaults from the paper.
const (
	// DefaultDamping is the canonical PageRank damping factor c.
	DefaultDamping = 0.85
	// DefaultIterations is the benchmark's fixed iteration count.
	DefaultIterations = 20
)

// DanglingPolicy selects how the rank mass sitting on dangling
// (zero-out-degree) vertices is treated each iteration.  The paper's
// appendix cites the family of PageRank variants these correspond to
// (Gleich 2015): sink, weakly preferential and strongly preferential
// PageRank.
type DanglingPolicy int

const (
	// DanglingIgnore is the benchmark definition: the dangling term is
	// omitted and rank mass leaks out of the iteration ("sink" behavior).
	DanglingIgnore DanglingPolicy = iota
	// DanglingUniform redistributes dangling mass uniformly over all
	// vertices — weakly preferential PageRank.  The iteration becomes
	// fully stochastic: sum(r) is conserved.
	DanglingUniform
	// DanglingTeleport redistributes dangling mass according to the
	// teleport (personalization) vector — strongly preferential PageRank.
	// Also mass conserving.
	DanglingTeleport
)

// String implements fmt.Stringer.
func (p DanglingPolicy) String() string {
	switch p {
	case DanglingIgnore:
		return "ignore"
	case DanglingUniform:
		return "uniform"
	case DanglingTeleport:
		return "teleport"
	default:
		return fmt.Sprintf("policy?(%d)", int(p))
	}
}

// Options configures a PageRank run.  The zero value selects the paper's
// benchmark parameters (c = 0.85, 20 iterations, no dangling correction,
// uniform teleportation, random initial vector from seed 0).
type Options struct {
	// Damping is c; zero selects 0.85.
	Damping float64
	// Iterations is the fixed iteration count; zero selects 20.
	Iterations int
	// Seed selects the random initial vector.
	Seed uint64
	// Dangling enables the uniform dangling-node correction; it is the
	// boolean shorthand for Policy == DanglingUniform.  Off in the
	// benchmark definition.
	Dangling bool
	// Policy selects the dangling-mass treatment explicitly; it overrides
	// Dangling when non-zero.
	Policy DanglingPolicy
	// Teleport is the personalization vector v: the teleport term becomes
	// (1-c)·sum(r)·v[j] instead of (1-c)·sum(r)/N.  It must have length N,
	// non-negative entries and unit sum.  Nil selects the uniform vector,
	// which is the benchmark definition.
	Teleport []float64
	// Tolerance, when positive, stops iterating early once the 1-norm
	// difference between successive vectors drops below it — the
	// "real application" convergence mode the paper contrasts with fixed
	// iteration counts.
	Tolerance float64
	// InitialRank, when non-nil, seeds the iteration with the given vector
	// instead of InitVector(N, Seed) — the restart path for checkpointed
	// runs.  It must have length N; it is copied, not aliased.
	InitialRank []float64
	// Progress, when non-nil, is called after every completed iteration
	// with the 1-based iteration count — the streaming-observation hook
	// the service layer's RunStream is built on.  The callback runs on
	// the iterating goroutine; it must be fast and must not call back
	// into the engine.  A nil Progress costs nothing.
	Progress func(iteration int)
}

// policy resolves the effective dangling policy.
func (o Options) policy() DanglingPolicy {
	if o.Policy != DanglingIgnore {
		return o.Policy
	}
	if o.Dangling {
		return DanglingUniform
	}
	return DanglingIgnore
}

func (o Options) damping() float64 {
	if o.Damping == 0 {
		return DefaultDamping
	}
	return o.Damping
}

func (o Options) iterations() int {
	if o.Iterations == 0 {
		return DefaultIterations
	}
	return o.Iterations
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	c := o.damping()
	if c <= 0 || c >= 1 {
		return fmt.Errorf("pagerank: damping %v out of (0,1)", c)
	}
	if o.iterations() < 1 {
		return fmt.Errorf("pagerank: iterations %d, want >= 1", o.iterations())
	}
	if o.Tolerance < 0 {
		return fmt.Errorf("pagerank: negative tolerance %v", o.Tolerance)
	}
	switch o.Policy {
	case DanglingIgnore, DanglingUniform, DanglingTeleport:
	default:
		return fmt.Errorf("pagerank: unknown dangling policy %d", o.Policy)
	}
	if o.Teleport != nil {
		var sum float64
		for i, v := range o.Teleport {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("pagerank: teleport[%d] = %v, want non-negative", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("pagerank: teleport vector sums to %v, want 1", sum)
		}
	}
	return nil
}

// ValidateN checks the size constraints that need the vertex count n:
// a teleport or initial vector must hold n elements.
func (o Options) ValidateN(n int) error {
	if o.Teleport != nil && len(o.Teleport) != n {
		return fmt.Errorf("pagerank: teleport vector length %d, want N = %d", len(o.Teleport), n)
	}
	if o.InitialRank != nil && len(o.InitialRank) != n {
		return fmt.Errorf("pagerank: initial rank length %d, want N = %d", len(o.InitialRank), n)
	}
	return nil
}

// Result is the outcome of a PageRank run.
type Result struct {
	// Rank is the final rank vector r.
	Rank []float64
	// Iterations is the number of update steps actually performed.
	Iterations int
	// FinalDiff is the 1-norm difference between the last two iterates
	// (0 if only one iteration ran without tolerance checking).
	FinalDiff float64
}

// InitVector returns the paper's initial vector: N random values
// normalized to unit 1-norm.
func InitVector(n int, seed uint64) []float64 {
	r := make([]float64, n)
	initVectorInto(r, seed)
	return r
}

// initVectorInto fills r with the paper's initial vector in place — the
// allocation-free form Engine.Reset uses.
func initVectorInto(r []float64, seed uint64) {
	g := xrand.NewSeeded(seed, 0x70617261) // distinct stream tag
	var sum float64
	for i := range r {
		r[i] = float64(g.Float64()) // an inlined product: rounded before the add
		sum += r[i]
	}
	inv := 1 / sum
	for i := range r {
		r[i] *= inv
	}
}

// danglingMask returns the deferred computation of which rows of a carry
// no outgoing mass; newMaskedEngine runs it only when a policy reads it.
func danglingMask(a *sparse.CSR) func() []bool {
	return func() []bool {
		mask := make([]bool, a.N)
		for i, d := range a.OutDegrees() {
			mask[i] = d == 0
		}
		return mask
	}
}

// Scatter runs PageRank with the CSR scatter engine: each stored entry
// A(i,j) contributes r[i]·A(i,j) to out[j] in row-major order.
func Scatter(a *sparse.CSR, opt Options) (*Result, error) {
	e, err := NewScatterEngine(a, opt)
	if err != nil {
		return nil, err
	}
	return e.Run(), nil
}

// Gather runs PageRank with the gather engine: A is transposed once, rows
// in order of length (sparse.Ordered), and the product r·A becomes the
// cache-friendlier Aᵀ·r.
func Gather(a *sparse.CSR, opt Options) (*Result, error) {
	e, err := NewGatherEngine(a, opt)
	if err != nil {
		return nil, err
	}
	return e.Run(), nil
}

// NewGraphBLASEngine builds a reusable engine over the generic (+, ×)
// semiring product: PageRank expressed in GraphBLAS form.
func NewGraphBLASEngine(m *graphblas.Matrix[float64], opt Options) (*Engine, error) {
	n := m.Dim()
	dangling := func() []bool {
		mask := make([]bool, n)
		for i, s := range m.ReduceRows(graphblas.PlusFloat64) {
			mask[i] = s == 0
		}
		return mask
	}
	step := func(out, r []float64) {
		if err := graphblas.VxM(out, r, m, graphblas.PlusTimesFloat64); err != nil {
			// Dimensions are fixed by construction; an error here is a bug.
			panic(err)
		}
	}
	return newMaskedEngine(n, nil, step, dangling, opt)
}

// ---------------------------------------------------------------------------
// Validation (paper §IV.D)

// EigenOptions configures the dense eigenvector validation.
type EigenOptions struct {
	// Damping is c; zero selects 0.85.
	Damping float64
	// MaxIterations bounds the dense power iteration (default 1000).
	MaxIterations int
	// Tolerance is the power-iteration convergence threshold on the
	// 1-norm difference (default 1e-12).
	Tolerance float64
}

// DominantEigenvector computes the dominant left eigenvector of
// c·A + (1-c)/N·𝟙 — equivalently the dominant (right) eigenvector of
// c·Aᵀ + (1-c)/N, the matrix the paper passes to eigs — by dense power
// iteration.  It refuses N > 4096; the check is defined for "small enough
// problems where the dense matrix fits into memory".
func DominantEigenvector(a *sparse.CSR, opt EigenOptions) ([]float64, error) {
	c := opt.Damping
	if c == 0 {
		c = DefaultDamping
	}
	maxIter := opt.MaxIterations
	if maxIter == 0 {
		maxIter = 1000
	}
	tol := opt.Tolerance
	if tol == 0 {
		tol = 1e-12
	}
	dense, err := a.Dense()
	if err != nil {
		return nil, err
	}
	n := a.N
	offset := (1 - c) / float64(n)
	// x ← x·(c·A + offset·𝟙), normalized each step.
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for it := 0; it < maxIter; it++ {
		sumX := sparse.Sum(x)
		for j := 0; j < n; j++ {
			next[j] = offset * sumX
		}
		for i := 0; i < n; i++ {
			xi := c * x[i]
			if xi == 0 {
				continue
			}
			row := dense[i]
			for j := 0; j < n; j++ {
				next[j] += float64(xi * row[j])
			}
		}
		norm := sparse.Norm1(next)
		if norm == 0 {
			return nil, fmt.Errorf("pagerank: power iteration collapsed to zero")
		}
		sparse.Scale(next, 1/norm)
		d := sparse.Diff1(next, x)
		x, next = next, x
		if d < tol {
			break
		}
	}
	return x, nil
}

// CompareWithEigen normalizes both r and the dense dominant eigenvector to
// unit 1-norm and returns the maximum absolute component difference — the
// paper's r./norm(r,1) == r1./norm(r1,1) check.
func CompareWithEigen(r []float64, a *sparse.CSR, opt EigenOptions) (float64, error) {
	r1, err := DominantEigenvector(a, opt)
	if err != nil {
		return 0, err
	}
	rn := append([]float64(nil), r...)
	norm := sparse.Norm1(rn)
	if norm == 0 {
		return 0, fmt.Errorf("pagerank: rank vector has zero norm")
	}
	sparse.Scale(rn, 1/norm)
	var maxDiff float64
	for i := range rn {
		if d := math.Abs(rn[i] - r1[i]); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff, nil
}

package dist

// Execute is the distributed runtime's single entry point: every program
// the package runs — the kernel-2/3 pipeline, kernel 3 alone, kernel 2
// alone, and the kernel-1 sort in or out of core — is one Op of one
// Spec, executed in any mode under one context: validate the Spec,
// launch its ranks (in-process or over sockets), assemble the Op's
// result.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/edge"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/xsort"
)

// Op selects the distributed program a Spec executes.
type Op int

const (
	// OpRun is the kernel-2/kernel-3 pipeline: route and filter the
	// edges, then iterate PageRank (fills Outcome.Run).
	OpRun Op = iota
	// OpRunMatrix is the kernel-3 iteration on an already built,
	// filtered, normalized matrix (fills Outcome.Run).
	OpRunMatrix
	// OpBuildFiltered is the kernel 2 alone: build, filter and assemble
	// the global matrix (fills Outcome.Build).
	OpBuildFiltered
	// OpSort is the distributed sample sort, kernel 1: in memory, or out
	// of core when Spec.Ext.RunEdges > 0 (fills Outcome.Sort).
	OpSort
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRun:
		return "run"
	case OpRunMatrix:
		return "run-matrix"
	case OpBuildFiltered:
		return "build-filtered"
	case OpSort:
		return "sort"
	default:
		return fmt.Sprintf("op?(%d)", int(o))
	}
}

// Spec is one distributed execution: the runtime configuration (the
// embedded Config's Mode and Workers), the program (Op), its processor
// count and inputs, and the per-program knobs.  The zero Config is
// goroutine ranks with serial local compute, as everywhere.
type Spec struct {
	// Config is the runtime configuration: execution mode plus hybrid
	// intra-rank workers.  Results are bit-for-bit invariant in both.
	// Mode applies to every op; Workers parallelizes the kernel-3 block
	// product (OpRun, OpRunMatrix) and the in-memory kernel-1 bucket
	// partitioning and sort (OpSort, xsort.Sort) — OpBuildFiltered and
	// the out-of-core sort have no intra-rank worker stage and ignore it.
	Config
	// Op selects the program.
	Op Op
	// Procs is the processor (rank) count p.
	Procs int
	// N is the global vertex count (OpRun and OpBuildFiltered).
	N int
	// Edges is the input edge list (every op except OpRunMatrix).  It is
	// never modified; callers may share one list across concurrent
	// Executes.
	Edges *edge.List
	// Matrix is the built input matrix (OpRunMatrix).
	Matrix *sparse.CSR
	// PageRank carries the kernel-3 options (OpRun and OpRunMatrix).
	PageRank pagerank.Options
	// Ext carries OpSort's out-of-core knobs; Ext.RunEdges > 0 spills.
	Ext ExtSortConfig
	// Checkpoint configures epoch checkpoint/restart of the kernel-3
	// iteration (OpRun and OpRunMatrix; see CheckpointSpec).  The zero
	// value disables it.
	Checkpoint CheckpointSpec
	// Fault, when non-nil, injects a rank failure into the kernel-3
	// iteration (OpRun and OpRunMatrix; see FaultPlan) — the chaos
	// suite's instrument.
	Fault *FaultPlan
	// Socket configures the socket execution mode (ExecSocket only; see
	// SocketSpec).  The zero value is a private unix-domain fabric with
	// self-spawned workers.
	Socket SocketSpec
	// Session, when non-nil (ExecSocket only — Execute rejects it in any
	// other mode), runs the program on that open fabric instead of a
	// private one opened and closed around it; Socket is then unused.  The
	// caller serializes a session's jobs.
	Session *Session
	// OperandID names Matrix to a Session (OpRunMatrix): workers that
	// still hold the row blocks of the same id from an earlier job are
	// sent none.  It must change whenever the matrix does — the matrix
	// cache's key plus fill generation, not a pointer.  Empty always
	// ships.
	OperandID string
}

// Outcome is the result of one Execute: exactly one field is non-nil,
// the one matching the Spec's Op.
type Outcome struct {
	// Run is OpRun's and OpRunMatrix's result.
	Run *Result
	// Build is OpBuildFiltered's result.
	Build *BuildResult
	// Sort is OpSort's result.
	Sort *SortResult
}

// specN resolves the global vertex count of a kernel-3 spec: the
// explicit N for OpRun, the matrix dimension for OpRunMatrix.
func specN(spec Spec) int {
	if spec.Op == OpRunMatrix {
		return spec.Matrix.N
	}
	return spec.N
}

// validate checks spec's input contract once, for every mode — before
// any rank exists, so bad input cannot fail one rank mid-collective.
func validate(spec *Spec) error {
	switch spec.Mode {
	case ExecGoroutine:
		if spec.Session != nil {
			return fmt.Errorf("dist: Spec.Session requires the socket mode, not %v", spec.Mode)
		}
	case ExecSocket:
	default:
		return fmt.Errorf("dist: unknown execution mode %v (valid modes: %s)", spec.Mode, validExecModes)
	}
	kernel3 := spec.Op == OpRun || spec.Op == OpRunMatrix
	switch spec.Op {
	case OpRun, OpBuildFiltered, OpSort:
		if spec.Edges == nil {
			return fmt.Errorf("dist: %v of nil edge list", spec.Op)
		}
	case OpRunMatrix:
		if spec.Matrix == nil {
			return fmt.Errorf("dist: %v of nil matrix", spec.Op)
		}
		// A resident operand of the same id was checked when it shipped.
		resident := spec.Session != nil && spec.OperandID != "" && spec.OperandID == spec.Session.operand
		if !resident {
			if err := checkFinite(spec.Matrix); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("dist: unknown op %v", spec.Op)
	}
	if spec.Procs < 1 {
		return fmt.Errorf("dist: %v with p = %d, want >= 1", spec.Op, spec.Procs)
	}
	if spec.Ext.RunEdges < 0 {
		return fmt.Errorf("dist: %v with Ext.RunEdges = %d, want >= 0", spec.Op, spec.Ext.RunEdges)
	}
	if spec.Op == OpRun || spec.Op == OpBuildFiltered {
		if spec.N < 1 {
			return fmt.Errorf("dist: %v with n = %d, want >= 1", spec.Op, spec.N)
		}
		if err := validateVertices(spec.Edges, spec.N); err != nil {
			return err
		}
	}
	if err := spec.PageRank.ValidateN(specN(*spec)); kernel3 && err != nil {
		return err // before any rank: a socket job carries only n-element vectors
	}
	if spec.Mode == ExecSocket && spec.Op != OpRunMatrix {
		if err := chunkFits(spec.Edges.Len(), spec.Procs); err != nil {
			return err
		}
	}
	if !kernel3 && spec.Checkpoint.enabled() {
		return fmt.Errorf("dist: checkpointing applies to the kernel-3 ops, not %v", spec.Op)
	}
	if !kernel3 && spec.Fault != nil {
		return fmt.Errorf("dist: fault injection applies to the kernel-3 ops, not %v", spec.Op)
	}
	return nil
}

// NonFiniteError is an OpRunMatrix operand holding a stored value that is
// not a finite number.  The ranks' gather adds 0·A(i,j) for a zero rank
// r[i] where a scatter would skip the row; the two agree bit for bit
// exactly when every stored value is finite (DESIGN.md §5) — as kernel
// 2's counts divided by out-degrees always are.
type NonFiniteError struct {
	Row, Col int
	Val      float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("dist: run-matrix operand entry (%d, %d) is %v; stored values must be finite", e.Row, e.Col, e.Val)
}

// checkFinite returns a NonFiniteError for a's first non-finite stored
// value, nil if there is none.
func checkFinite(a *sparse.CSR) error {
	for k, v := range a.Val {
		if v-v != 0 { // NaN and ±Inf; v-v is exactly 0 for every finite v
			row := sort.Search(a.N, func(i int) bool { return a.RowPtr[i+1] > int64(k) })
			return &NonFiniteError{Row: row, Col: int(a.Col[k]), Val: v}
		}
	}
	return nil
}

// Execute runs one distributed program under ctx.  Cancelling the
// context aborts the program at its next cancellation point — between
// kernel-3 iterations, and wherever a rank waits on a peer — with ctx's
// error, in every execution mode.  The fabric's teardown plane guarantees
// the abort strands no rank: a cancelled (or failed) run unwinds every
// rank before Execute returns (DESIGN.md §8).  A background context adds
// no overhead and changes no result.
func Execute(ctx context.Context, spec Spec) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(&spec); err != nil {
		return nil, err
	}
	// Inputs no rank needs to see: one processor or no edges sort in
	// memory without communicating, and an empty out-of-core sort spills
	// nothing.  One processor out of core still spills.
	if spec.Op == OpSort {
		switch ext := spec.Ext.outOfCore(); {
		case ext && spec.Edges.Len() == 0:
			return &Outcome{Sort: &SortResult{Sorted: edge.NewList(0), RunsPerRank: make([]int, spec.Procs)}}, nil
		case ext:
			spec.Ext = spec.Ext.withDefaults()
		case spec.Procs == 1 || spec.Edges.Len() == 0:
			out := spec.Edges.Clone()
			xsort.Sort(out, false, spec.workers())
			return &Outcome{Sort: &SortResult{Sorted: out}}, nil
		}
	}
	ck, done, err := prepareCheckpoint(&spec, specN(spec))
	if err != nil {
		return nil, err
	}
	if done != nil {
		if spec.Op == OpRunMatrix {
			done.NNZ = spec.Matrix.NNZ()
		}
		return &Outcome{Run: done}, nil
	}
	var j *joined
	if spec.Mode == ExecSocket {
		j, err = launchSocket(ctx, spec, ck)
	} else {
		j, err = launchRanks(ctx, spec, ck)
	}
	if err != nil {
		return nil, err
	}
	return assembleOutcome(spec, ck, j)
}

// assembleOutcome folds the joined ranks into spec.Op's result: rank 0's
// replica for the kernel-3 ops, the row blocks concatenated into the
// global matrix for kernel 2, the buckets concatenated in rank order for
// the sorts (the unmetered "output stays distributed" convention).
func assembleOutcome(spec Spec, ck *ckptRun, j *joined) (*Outcome, error) {
	first := j.outcomes[0]
	switch spec.Op {
	case OpRun, OpRunMatrix:
		res := &Result{
			Rank: first.rank, NNZ: first.nnz, Comm: j.comm, Iterations: first.iters,
			RankSeconds: j.seconds, Wire: j.wire,
		}
		if spec.Op == OpRunMatrix {
			res.NNZ = spec.Matrix.NNZ()
		}
		ck.finish(res)
		return &Outcome{Run: res}, nil
	case OpBuildFiltered:
		states := make([]*rankState, len(j.outcomes))
		for r, o := range j.outcomes {
			if o.st == nil {
				return nil, fmt.Errorf("dist: rank %d outcome carries no block", r)
			}
			states[r] = o.st
		}
		return &Outcome{Build: &BuildResult{
			Matrix: assemble(states, spec.N), Mass: first.mass, NNZ: first.nnz, Comm: j.comm, Wire: j.wire,
		}}, nil
	}
	res := &SortResult{Sorted: edge.NewList(spec.Edges.Len()), Comm: j.comm, Wire: j.wire}
	for _, o := range j.outcomes {
		res.Sorted.AppendList(o.edges)
	}
	if spec.Ext.outOfCore() {
		res.RunsPerRank, res.SpillCodec = make([]int, len(j.outcomes)), spec.Ext.Codec.Name()
		for r, o := range j.outcomes {
			res.RunsPerRank[r] = o.runs
			res.Spill.BytesRead += o.spill.BytesRead
			res.Spill.BytesWritten += o.spill.BytesWritten
			res.Spill.Opens += o.spill.Opens
			res.Spill.Creates += o.spill.Creates
		}
	}
	return &Outcome{Sort: res}, nil
}

package dist

// Execute is the distributed runtime's single entry point: every program
// the package runs — the kernel-2/3 pipeline, kernel 3 alone, kernel 2
// alone, and the two kernel-1 sorts — is one Op of one Spec, executed in
// either mode under one context.  The form replaces the mode-suffixed
// spread (Run/RunCfg/RunMode/RunMatrix…/Sort…/BuildFiltered…/
// SortExternal…) the API had grown: those names survive as thin
// deprecated wrappers that build the equivalent Spec and delegate here,
// so their results — bits, CommStats, Spill records — are the redesign's
// results by construction.  DESIGN.md §8 tabulates old → new.

import (
	"context"
	"fmt"

	"repro/internal/edge"
	"repro/internal/pagerank"
	"repro/internal/sparse"
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
	// OpSort is the in-memory distributed sample sort, kernel 1 (fills
	// Outcome.Sort).
	OpSort
	// OpSortExternal is the out-of-core distributed sample sort, kernel 1
	// beyond RAM (fills Outcome.ExtSort).
	OpSortExternal
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
	case OpSortExternal:
		return "sort-external"
	default:
		return fmt.Sprintf("op?(%d)", int(o))
	}
}

// Spec is one distributed execution: the runtime configuration (the
// embedded Config's Mode and Workers), the program (Op), its processor
// count and inputs, and the per-program knobs.  The zero Config is the
// single-threaded simulation with serial ranks, as everywhere.
type Spec struct {
	// Config is the runtime configuration: execution mode plus hybrid
	// intra-rank workers.  Results are bit-for-bit invariant in both.
	// Mode applies to every op; Workers parallelizes the kernel-3 block
	// product (OpRun, OpRunMatrix) and the kernel-1 bucket partitioning
	// (OpSort) — OpBuildFiltered and OpSortExternal have no intra-rank
	// worker stage (exactly as their pre-redesign entrypoints, which
	// took no Config) and ignore it.
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
	// Ext carries the out-of-core sort's knobs (OpSortExternal).
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
	// Session, when non-nil (ExecSocket only), runs the program on that
	// open fabric instead of a private one opened and closed around it;
	// Socket is then unused.  The caller serializes a session's jobs.
	Session *Session
	// OperandID names Matrix to a Session (OpRunMatrix): workers that
	// still hold the row blocks of the same id from an earlier job are
	// sent none.  It must change whenever the matrix does — the staged
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
	// ExtSort is OpSortExternal's result.
	ExtSort *ExtSortResult
}

// specN resolves the global vertex count of a kernel-3 spec: the
// explicit N for OpRun, the matrix dimension for OpRunMatrix.
func specN(spec Spec) int {
	if spec.Op == OpRunMatrix {
		if spec.Matrix == nil {
			return 0
		}
		return spec.Matrix.N
	}
	return spec.N
}

// Execute runs one distributed program under ctx.  Cancelling the
// context aborts the program at its next cancellation point — between
// kernel-3 iterations, between the sorts' and kernel 2's phases — with
// ctx's error, in both execution modes.  In the goroutine mode the
// fabric's teardown plane guarantees the abort strands no rank: a
// cancelled (or failed) run unwinds every rank goroutine before Execute
// returns (DESIGN.md §8).  A background context adds no overhead and
// changes no result: for every op, Execute under context.Background()
// returns bit-for-bit the bytes, CommStats and Spill records of the
// pre-redesign entrypoints it replaced.
func Execute(ctx context.Context, spec Spec) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch spec.Mode {
	case ExecSim, ExecGoroutine, ExecSocket:
	default:
		return nil, fmt.Errorf("dist: unknown execution mode %v (valid modes: %s)", spec.Mode, validExecModes)
	}
	if spec.Op != OpRun && spec.Op != OpRunMatrix {
		if spec.Checkpoint.enabled() {
			return nil, fmt.Errorf("dist: checkpointing applies to the kernel-3 ops, not %v", spec.Op)
		}
		if spec.Fault != nil {
			return nil, fmt.Errorf("dist: fault injection applies to the kernel-3 ops, not %v", spec.Op)
		}
	}
	switch spec.Op {
	case OpRun:
		ck, done, err := prepareCheckpoint(&spec, specN(spec))
		if err != nil {
			return nil, err
		}
		if done != nil {
			return &Outcome{Run: done}, nil
		}
		var res *Result
		switch spec.Mode {
		case ExecSim:
			res, err = runSim(ctx, spec.Config, spec.Edges, spec.N, spec.Procs, spec.PageRank, ck)
		case ExecSocket:
			res, err = runSocket(ctx, spec, ck)
		default:
			res, err = runGoroutine(ctx, spec.Config, spec.Edges, spec.N, spec.Procs, spec.PageRank, ck)
		}
		if err != nil {
			return nil, err
		}
		ck.finish(res)
		return &Outcome{Run: res}, nil
	case OpRunMatrix:
		ck, done, err := prepareCheckpoint(&spec, specN(spec))
		if err != nil {
			return nil, err
		}
		if done != nil {
			if spec.Matrix != nil {
				done.NNZ = spec.Matrix.NNZ()
			}
			return &Outcome{Run: done}, nil
		}
		var res *Result
		switch spec.Mode {
		case ExecSim:
			res, err = runMatrixSim(ctx, spec.Config, spec.Matrix, spec.Procs, spec.PageRank, ck)
		case ExecSocket:
			res, err = runSocket(ctx, spec, ck)
		default:
			res, err = runMatrixGoroutine(ctx, spec.Config, spec.Matrix, spec.Procs, spec.PageRank, ck)
		}
		if err != nil {
			return nil, err
		}
		ck.finish(res)
		return &Outcome{Run: res}, nil
	case OpBuildFiltered:
		var res *BuildResult
		var err error
		switch spec.Mode {
		case ExecSim:
			res, err = buildFilteredSim(ctx, spec.Edges, spec.N, spec.Procs)
		case ExecSocket:
			res, err = buildFilteredSocket(ctx, spec)
		default:
			res, err = buildFilteredGoroutine(ctx, spec.Edges, spec.N, spec.Procs)
		}
		if err != nil {
			return nil, err
		}
		return &Outcome{Build: res}, nil
	case OpSort:
		var res *SortResult
		var err error
		switch spec.Mode {
		case ExecSim:
			res, err = sortSim(ctx, spec.Config, spec.Edges, spec.Procs)
		case ExecSocket:
			res, err = sortSocket(ctx, spec)
		default:
			res, err = sortGoroutine(ctx, spec.Config, spec.Edges, spec.Procs)
		}
		if err != nil {
			return nil, err
		}
		return &Outcome{Sort: res}, nil
	case OpSortExternal:
		res, err := executeSortExternal(ctx, spec)
		if err != nil {
			return nil, err
		}
		return &Outcome{ExtSort: res}, nil
	default:
		return nil, fmt.Errorf("dist: unknown op %v", spec.Op)
	}
}

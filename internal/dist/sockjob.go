package dist

// The socket runtime's control-plane job and outcome payloads: what the
// coordinator ships to a worker process (wireJob) and what the worker
// ships back (wireOutcome).  Both travel gob-encoded inside control
// frames — the handshake has already proven both ends speak the same
// wire version, and control traffic is unmetered (DESIGN.md §5), so the
// job's full edge list mirrors the goroutine mode's closures capturing
// the full input without touching CommStats.  Rank 0's final vector is
// the exception: it goes home as a raw FrameVec ahead of the outcome.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/dist/fabric"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

// WireStats reports the socket fabric's measured bytes, summed over the
// workers' mesh links — the actual network the comm model is tested
// against.  DataBytes are the payload bytes of the metered collectives
// and equal the run's CommStats total identically (the typed frame
// encodings cost exactly the wire-cost formulas); ControlBytes are the
// unmetered error-agreement strings; OverheadBytes the frame headers
// and segment boundaries.  On a resident Session all four are the job's
// own share, not the session's running total.
type WireStats struct {
	DataBytes     uint64
	ControlBytes  uint64
	OverheadBytes uint64
	Frames        uint64
	// SetupBytes is the set-up ledger, apart from the mesh: the payload
	// bytes the coordinator sent down the control links for this job —
	// the job specs and, when the workers did not already hold it, the
	// kernel-3 operand's row blocks.
	SetupBytes uint64
}

// Add folds o into w.
func (w *WireStats) Add(o WireStats) {
	w.DataBytes += o.DataBytes
	w.ControlBytes += o.ControlBytes
	w.OverheadBytes += o.OverheadBytes
	w.Frames += o.Frames
}

// wireCounters converts a fabric snapshot.
func wireCounters(c fabric.Counters) WireStats {
	return WireStats{DataBytes: c.DataBytes, ControlBytes: c.ControlBytes,
		OverheadBytes: c.OverheadBytes, Frames: c.Frames}
}

// wireJob is one worker's marching orders: the op, the shared inputs,
// and the per-op knobs — everything a rank program needs that the
// goroutine mode's closures would have captured.
type wireJob struct {
	Op      int
	Procs   int
	N       int
	Workers int

	// EdgesU/EdgesV carry the full input edge list (every op except
	// run-matrix, whose operand travels as a block frame); every rank
	// receives the whole list and works on its blockBounds chunk,
	// exactly like a goroutine rank.
	EdgesU, EdgesV []uint64

	// ShipOperand announces (run-matrix only) that the rank's row block
	// follows the job as a block frame and replaces whatever operand
	// the worker holds; without it the job runs on the resident one.
	ShipOperand bool

	Opt wireOpt
	// ReportProgress asks rank 0 to stream per-iteration progress
	// frames back to the coordinator.
	ReportProgress bool

	// Ext carries the out-of-core sort's knobs.
	Ext wireExt

	// Ckpt configures the worker-side checkpoint hook; chunk and commit
	// writes are relayed to the coordinator's storage.
	Ckpt wireCkpt
	// Fault is the planned rank failure, if any.
	Fault *FaultPlan
}

// wireOpt is pagerank.Options minus the function fields, which cannot
// cross a process boundary (Progress is relayed by frame instead).
type wireOpt struct {
	Damping       float64
	Iterations    int
	Seed          uint64
	Dangling      bool
	Policy        int
	Teleport      []float64
	Tolerance     float64
	EngineWorkers int
	InitialRank   []float64
}

func optToWire(o pagerank.Options) wireOpt {
	return wireOpt{
		Damping: o.Damping, Iterations: o.Iterations, Seed: o.Seed,
		Dangling: o.Dangling, Policy: int(o.Policy), Teleport: o.Teleport,
		Tolerance: o.Tolerance, EngineWorkers: o.Workers, InitialRank: o.InitialRank,
	}
}

func (w wireOpt) options() pagerank.Options {
	return pagerank.Options{
		Damping: w.Damping, Iterations: w.Iterations, Seed: w.Seed,
		Dangling: w.Dangling, Policy: pagerank.DanglingPolicy(w.Policy),
		Teleport: w.Teleport, Tolerance: w.Tolerance, Workers: w.EngineWorkers,
		InitialRank: w.InitialRank,
	}
}

// wireExt is ExtSortConfig minus the FS (each worker spills to its own
// private in-memory store — run files are rank-private temporaries,
// removed before the rank returns, so the backing store is
// unobservable beyond the metered spill counters the outcome reports).
type wireExt struct {
	RunEdges  int
	TmpPrefix string
	CodecName string
}

// codecByName resolves a spill codec shipped by name; the names are the
// codecs' own Name() strings.
func codecByName(name string) (fastio.Codec, error) {
	switch name {
	case "", fastio.Binary{}.Name():
		return fastio.Binary{}, nil
	case fastio.Packed{}.Name():
		return fastio.Packed{}, nil
	case fastio.TSV{}.Name():
		return fastio.TSV{}, nil
	case fastio.NaiveTSV{}.Name():
		return fastio.NaiveTSV{}, nil
	default:
		return nil, fmt.Errorf("dist: unknown spill codec %q", name)
	}
}

// wireCkpt parameterizes the worker-side checkpoint hook: the epoch
// schedule and the chunk geometry, with all storage relayed to the
// coordinator (checkpoint.go's relay seam).
type wireCkpt struct {
	On      bool
	Every   int
	N       int64
	Damping float64
	Base    int64
}

// Worker outcome error kinds: how a rank program's error crosses the
// process boundary without losing its errors.Is identity.
const (
	errKindNone = iota
	// errKindAborted: the fabric came down underneath the rank (a peer
	// failed, or the run was cancelled) — the socket spelling of
	// errRunAborted.
	errKindAborted
	// errKindFault: the rank's planned FaultPlan failure fired
	// (ErrFaultInjected).
	errKindFault
	// errKindOther: any other failure, carried by message.
	errKindOther
)

// wireOutcome is one worker's result report: the fields of rankOutcome
// that survive the process boundary, plus the worker's communication,
// timing, wire and spill records.
type wireOutcome struct {
	Rank    int
	ErrKind int
	ErrMsg  string

	Comm    CommStats
	Seconds float64
	Wire    WireStats

	// VecLen is the length of the final rank vector (rank 0 only; all
	// replicas are byte-identical, so shipping one saves p-1 copies of
	// control traffic).  The vector itself, rankVec on both sides,
	// travels raw in a FrameVec just ahead of this outcome: gob would
	// spend milliseconds encoding and decoding it on the critical path.
	VecLen  int
	rankVec []float64
	Iters   int
	Mass    float64
	NNZ     int

	// Block is the rank's built block state (build-filtered only).
	Block *wireBlock

	// EdgesU/EdgesV is the rank's sorted bucket (sort ops only).
	EdgesU, EdgesV []uint64
	// Runs is the rank's spilled-run count (out-of-core sort only).
	Runs int
	// Spill is the rank's private spill-store traffic (out-of-core sort
	// only); the coordinator sums the per-rank records.
	Spill vfs.IOStats
}

// wireBlock is one rank's block plus its dangling rows, flattened.
type wireBlock struct {
	Lo, Hi, N    int
	RowPtr       []int64
	Col          []uint32
	Val          []float64
	DanglingRows []int
}

func stateToWire(st *rankState) *wireBlock {
	return &wireBlock{
		Lo: st.blk.lo, Hi: st.blk.hi, N: st.blk.n,
		RowPtr: st.blk.rowPtr, Col: st.blk.col, Val: st.blk.val,
		DanglingRows: st.danglingRows,
	}
}

func (w *wireBlock) state() *rankState {
	return &rankState{
		blk:          &block{lo: w.Lo, hi: w.Hi, n: w.N, rowPtr: w.RowPtr, col: w.Col, val: w.Val},
		danglingRows: w.DanglingRows,
	}
}

// wireOutcomeOf flattens rank's outcome of an op program for the control
// link; the caller adds the communication, timing and wire records.  Only
// rank 0 ships the rank vector (all replicas are byte-identical), and only
// kernel 2 alone ships its block (the coordinator assembles the matrix).
func wireOutcomeOf(rank int, op Op, o rankOutcome) *wireOutcome {
	out := &wireOutcome{Rank: rank, Iters: o.iters, Mass: o.mass, NNZ: o.nnz, Runs: o.runs, Spill: o.spill}
	out.ErrKind, out.ErrMsg = errToKind(o.err)
	if rank == 0 {
		out.rankVec, out.VecLen = o.rank, len(o.rank)
	}
	if o.edges != nil {
		out.EdgesU, out.EdgesV = o.edges.U, o.edges.V
	}
	if op == OpBuildFiltered && o.st != nil {
		out.Block = stateToWire(o.st)
	}
	return out
}

// outcome rebuilds the rank's program outcome on the coordinator (the
// error travels separately, through outcomeErr).
func (o *wireOutcome) outcome() rankOutcome {
	out := rankOutcome{
		rank: o.rankVec, iters: o.Iters, mass: o.Mass, nnz: o.NNZ,
		edges: edgesOf(o.EdgesU, o.EdgesV), runs: o.Runs, spill: o.Spill,
	}
	if o.Block != nil {
		out.st = o.Block.state()
	}
	return out
}

// outcomeErr reconstructs a worker error on the coordinator, preserving
// errors.Is against ErrFaultInjected and the aborted sentinel.
func (o *wireOutcome) outcomeErr() error {
	switch o.ErrKind {
	case errKindNone:
		return nil
	case errKindAborted:
		return errRunAborted
	case errKindFault:
		return ErrFaultInjected
	default:
		return fmt.Errorf("dist: rank %d: %s", o.Rank, o.ErrMsg)
	}
}

// errToKind classifies a rank program's error for the wire.  A local
// cancellation maps to aborted: the coordinator owns the causal error
// (its own ctx, or the originating rank's failure).
func errToKind(err error) (int, string) {
	switch {
	case err == nil:
		return errKindNone, ""
	case errors.Is(err, ErrFaultInjected):
		return errKindFault, err.Error()
	case errors.Is(err, errRunAborted), errors.Is(err, context.Canceled):
		return errKindAborted, err.Error()
	default:
		return errKindOther, err.Error()
	}
}

// encodeGob and decodeGob are the control payload codec.
func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// edgesOf rebuilds an edge list from its flattened halves (aliasing,
// not copying: the wire slices are private to the decode).
func edgesOf(u, v []uint64) *edge.List { return &edge.List{U: u, V: v} }

package dist

// The socket runtime's control-plane job and outcome payloads: what the
// coordinator ships to a worker process and what the worker ships back,
// each one frame in fabric's field encoding (DESIGN.md §13 tables both
// layouts).  A job carries the rank's own share of the input and no
// more — its blockBounds chunk of the edge list, or its row block of the
// kernel-3 operand — and only rank 0's job carries the initial vector.
// Control traffic is unmetered (DESIGN.md §5): the chunks are the
// set-up ledger (WireStats.SetupBytes), never CommStats.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dist/fabric"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/sparse"
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
	// the job frames, which carry the ranks' edge chunks (16 bytes per
	// input edge in all) and, when the workers did not already hold it,
	// the kernel-3 operand's row blocks.
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

// chunkFits refuses an input of m edges whose largest rank chunk, at 16
// bytes per edge, cannot travel in one job frame: 16·⌈m/p⌉ must not pass
// fabric.DefaultMaxFrameBytes.
func chunkFits(m, p int) error {
	if chunk := m/p + min(m%p, 1); edgeWireBytes*uint64(chunk) > fabric.DefaultMaxFrameBytes {
		return fmt.Errorf("dist: a socket job of %d edges on p = %d ships %d-edge chunks, past the %d-byte frame limit", m, p, chunk, fabric.DefaultMaxFrameBytes)
	}
	return nil
}

// encodeJob is the FrameJob payload of rank's job under spec: the knobs,
// then the rank's own chunk of spec.Edges — or, for the kernel-3 operand,
// whether the job ships the rank's row block of spec.Matrix, and the
// block.  Only rank 0 carries the initial vector and reports progress
// (iterateRank broadcasts the one and single-observes the other).
func encodeJob(spec Spec, ck *ckptRun, rank int, ship bool) []byte {
	p, n, opt := spec.Procs, specN(spec), spec.PageRank
	var teleport, initial []float64
	if spec.Op == OpRun || spec.Op == OpRunMatrix {
		teleport = opt.Teleport
		if rank == 0 {
			initial = opt.InitialRank
		}
	}
	runEdges, codec := 0, ""
	if spec.Op == OpSort && spec.Ext.Codec != nil {
		runEdges, codec = spec.Ext.RunEdges, spec.Ext.Codec.Name()
	}
	size := 256 + 8*(len(teleport)+len(initial))
	m, chunk, blk := 0, edge.NewList(0), (*sparse.CSR)(nil)
	if spec.Op != OpRunMatrix {
		m = spec.Edges.Len()
		chunk = spec.Edges.Slice(blockBounds(m, p, rank))
		size += edgeWireBytes * chunk.Len()
	} else if ship {
		blk = spec.Matrix.RowBlock(blockBounds(n, p, rank))
		size += 8*blk.Rows() + 12*blk.NNZ()
	}

	b := make([]byte, 0, size)
	for _, v := range []int{int(spec.Op), p, n, m, spec.workers()} {
		b = fabric.AppendInt(b, v)
	}
	b = fabric.AppendF64(b, opt.Damping)
	b = fabric.AppendInt(b, opt.Iterations)
	b = fabric.AppendU64(b, opt.Seed)
	b = fabric.AppendBool(b, opt.Dangling)
	b = fabric.AppendInt(b, int(opt.Policy))
	b = fabric.AppendF64(b, opt.Tolerance)
	b = fabric.AppendBool(b, rank == 0 && opt.Progress != nil)
	b = fabric.AppendInt(b, runEdges)
	b = fabric.AppendString(b, codec)
	ckOn := ck != nil && ck.spec.enabled()
	if b = fabric.AppendBool(b, ckOn); ckOn {
		b = fabric.AppendInt(b, ck.spec.Every)
		b = fabric.AppendF64(b, ck.damping)
		b = fabric.AppendU64(b, uint64(ck.base))
	}
	if f := spec.Fault; f == nil {
		b = fabric.AppendBool(b, false)
	} else {
		b = fabric.AppendInt(fabric.AppendInt(fabric.AppendBool(b, true), f.KillRank), f.AtIteration)
		b = fabric.AppendBool(fabric.AppendBool(b, f.DuringCheckpoint), f.Hard)
	}
	b = fabric.AppendFloats(fabric.AppendFloats(b, teleport), initial)
	if spec.Op != OpRunMatrix {
		return fabric.AppendEdgeList(b, chunk)
	}
	if b = fabric.AppendBool(b, ship); ship {
		b = fabric.AppendBlock(b, blk.RowPtr, blk.Col, blk.Val)
	}
	return b
}

// parseJob decodes and checks rank's FrameJob payload on a fabric of p
// into the rank program's input: its chunk, the options, a private spill
// store, the kernel-3 operand when the job shipped one (the worker keeps
// it resident), and in ck the checkpoint and fault parameters.  What
// cannot cross a process boundary the worker wires (workerInput): a
// non-nil Progress only asks for rank 0's relay.  Nothing in the payload
// is trusted: every count is checked against it before anything is sized
// from it, and every field against what encodeJob sends for a valid Spec.
func parseJob(payload []byte, rank, p int) (*rankInput, error) {
	r := fabric.NewReader(payload)
	in := rankInput{op: Op(r.Int())}
	procs := r.Int()
	in.n = r.Int()
	m := r.Int()
	in.workers = r.Int()
	in.opt = pagerank.Options{Damping: r.F64(), Iterations: r.Int(), Seed: r.U64(), Dangling: r.Bool(),
		Policy: pagerank.DanglingPolicy(r.Int()), Tolerance: r.F64()}
	if r.Bool() {
		in.opt.Progress = func(int) {}
	}
	in.ext.RunEdges = r.Int()
	codec := r.Str()
	ck := &ckptRun{relay: r.Bool(), procs: int64(p)}
	if ck.relay {
		ck.spec.Every, ck.damping, ck.base = r.Int(), r.F64(), int64(r.U64())
	}
	if r.Bool() {
		ck.fault = &FaultPlan{KillRank: r.Int(), AtIteration: r.Int(), DuringCheckpoint: r.Bool(), Hard: r.Bool()}
	}
	in.opt.Teleport, in.opt.InitialRank = r.Floats(), r.Floats()
	ck.n = int64(in.n)
	teleport, initial := len(in.opt.Teleport), len(in.opt.InitialRank)
	switch {
	case r.Err() != nil:
	case procs != p:
		r.Failf("job for p = %d on a fabric of %d", procs, p)
	case in.op < OpRun || in.op > OpSort:
		r.Failf("unknown op %v", in.op)
	case in.op != OpSort && in.n < 1:
		r.Failf("%v for n = %d", in.op, in.n)
	case m < 0 || in.op == OpRunMatrix && m != 0:
		r.Failf("%v of %d edges", in.op, m)
	case in.workers < 1 || in.ext.RunEdges < 0:
		r.Failf("%d workers, RunEdges = %d", in.workers, in.ext.RunEdges)
	case ck.relay && ck.spec.Every < 1:
		r.Failf("checkpoint every %d iterations", ck.spec.Every)
	case ck.fault != nil && (ck.fault.KillRank < 0 || ck.fault.KillRank >= p || ck.fault.AtIteration < 1):
		r.Failf("fault plan kills rank %d at iteration %d", ck.fault.KillRank, ck.fault.AtIteration)
	case teleport != 0 && teleport != in.n, initial != 0 && (rank != 0 || initial != in.n):
		r.Failf("%d-element teleport and %d-element initial vectors for rank %d, want n = %d (initial: rank 0 only)", teleport, initial, rank, in.n)
	case in.ext.RunEdges > 0:
		c, err := fastio.CodecByName(codec)
		if err != nil {
			r.Failf("%v", err)
		}
		// A worker spills into its own private store: run files are
		// rank-private temporaries removed before the rank returns, so
		// only the metered counters the outcome reports are observable.
		in.ext = ExtSortConfig{FS: vfs.NewMem(), RunEdges: in.ext.RunEdges, Codec: c}.withDefaults()
	}
	switch {
	case r.Err() != nil:
	case in.op != OpRunMatrix:
		in.edges = r.Edges()
		if lo, hi := blockBounds(m, p, rank); r.Err() == nil && in.edges.Len() != hi-lo {
			r.Failf("%d-edge chunk, want edges [%d,%d) of %d", in.edges.Len(), lo, hi, m)
		}
		if r.Err() == nil && in.op != OpSort {
			if err := validateVertices(in.edges, in.n); err != nil {
				r.Failf("%v", err)
			}
		}
	case r.Bool():
		in.k3 = parseOperand(r, in.n, p, rank)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("dist: rank %d job: %w", rank, err)
	}
	if ck.relay || ck.fault != nil {
		in.ck = ck
	}
	return &in, nil
}

// parseOperand reads rank's row block of an n-vertex kernel-3 operand
// on p ranks and builds the operand from it; the block itself is dropped.
func parseOperand(r *fabric.Reader, n, p, rank int) *rankOperand {
	lo, hi := blockBounds(n, p, rank)
	blk := &sparse.CSR{N: n}
	blk.RowPtr, blk.Col, blk.Val = r.Block()
	if r.Err() != nil {
		return nil
	}
	if blk.Rows() != hi-lo {
		r.Failf("operand block of %d rows, want rows [%d,%d)", blk.Rows(), lo, hi)
		return nil
	}
	for _, c := range blk.Col {
		if int(c) >= n {
			r.Failf("operand block column %d out of range n = %d", c, n)
			return nil
		}
	}
	st := &rankState{lo: lo, blk: blk, danglingRows: danglingRowsOf(lo, blk.OutDegrees())}
	return st.operand()
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

// errToKind classifies a rank program's error for the wire.  A local
// cancellation maps to aborted: the coordinator owns the causal error
// (its own ctx, or the originating rank's failure).
func errToKind(err error) int {
	switch {
	case err == nil:
		return errKindNone
	case errors.Is(err, ErrFaultInjected):
		return errKindFault
	case errors.Is(err, errRunAborted), errors.Is(err, context.Canceled):
		return errKindAborted
	default:
		return errKindOther
	}
}

// report is one rank's end of a job: the program's outcome, its error
// included, plus the rank's communication, timing and mesh records.
type report struct {
	out     rankOutcome
	comm    CommStats
	seconds float64
	wire    WireStats
}

// The body an outcome carries after its records.
const (
	bodyNone   = iota
	bodyVec    // rank 0's result vector (the kernel-3 ops)
	bodyBucket // the rank's sorted bucket (the sorts)
	bodyBlock  // the rank's row block (kernel 2 alone)
)

// encodeOutcome is the FrameOutcome payload of rank's report: the error,
// the records and the scalars, then the one result the coordinator
// assembles from — only rank 0 ships the rank vector, all replicas being
// byte-identical.
func encodeOutcome(rank int, rep *report) []byte {
	o := &rep.out
	body, size := bodyNone, 256
	switch {
	case o.err != nil:
	case o.st != nil:
		body, size = bodyBlock, size+8*o.st.blk.Rows()+12*o.st.blk.NNZ()
	case o.edges != nil:
		body, size = bodyBucket, size+edgeWireBytes*o.edges.Len()
	case rank == 0 && o.rank != nil:
		body, size = bodyVec, size+8*len(o.rank)
	}
	msg := ""
	if o.err != nil {
		msg = o.err.Error()
	}
	b := make([]byte, 0, size+len(msg))
	b = fabric.AppendInt(b, errToKind(o.err))
	b = fabric.AppendString(b, msg)
	c := rep.comm
	for _, v := range []uint64{c.AllToAllBytes, c.AllReduceCalls, c.AllReduceBytes, c.BroadcastCalls, c.BroadcastBytes,
		rep.wire.DataBytes, rep.wire.ControlBytes, rep.wire.OverheadBytes, rep.wire.Frames} {
		b = fabric.AppendU64(b, v)
	}
	b = fabric.AppendF64(b, rep.seconds)
	b = fabric.AppendInt(b, o.iters)
	b = fabric.AppendF64(b, o.mass)
	b = fabric.AppendInt(b, o.nnz)
	b = fabric.AppendInt(b, o.runs)
	for _, v := range []int64{o.spill.BytesRead, o.spill.BytesWritten, o.spill.Opens, o.spill.Creates} {
		b = fabric.AppendU64(b, uint64(v))
	}
	b = fabric.AppendInt(b, body)
	switch body {
	case bodyVec:
		b = fabric.AppendFloats(b, o.rank)
	case bodyBucket:
		b = fabric.AppendEdgeList(b, o.edges)
	case bodyBlock:
		b = fabric.AppendInt(b, o.st.lo)
		b = fabric.AppendInt(b, o.st.blk.N)
		b = fabric.AppendBlock(b, o.st.blk.RowPtr, o.st.blk.Col, o.st.blk.Val)
	}
	return b
}

// parseOutcome decodes rank's FrameOutcome payload for a job of op over
// n vertices on p ranks, and checks that a successful outcome carries
// what the coordinator assembles from it and nothing it could not: rank
// 0's n-element vector, a bucket, or the rank's own rows of all n
// columns as a valid CSR.
// The rank's error is rebuilt into the outcome with its errors.Is
// identity (ErrFaultInjected, the aborted sentinel).
func parseOutcome(payload []byte, op Op, n, p, rank int) (*report, error) {
	r := fabric.NewReader(payload)
	kind, msg := r.Int(), r.Str()
	rep := &report{}
	c, w := &rep.comm, &rep.wire
	for _, v := range []*uint64{&c.AllToAllBytes, &c.AllReduceCalls, &c.AllReduceBytes, &c.BroadcastCalls, &c.BroadcastBytes,
		&w.DataBytes, &w.ControlBytes, &w.OverheadBytes, &w.Frames} {
		*v = r.U64()
	}
	rep.seconds = r.F64()
	o := &rep.out
	o.iters, o.mass, o.nnz, o.runs = r.Int(), r.F64(), r.Int(), r.Int()
	for _, v := range []*int64{&o.spill.BytesRead, &o.spill.BytesWritten, &o.spill.Opens, &o.spill.Creates} {
		*v = int64(r.U64())
	}
	body, want := r.Int(), bodyNone
	switch {
	case kind != errKindNone:
	case op == OpSort:
		want = bodyBucket
	case op == OpBuildFiltered:
		want = bodyBlock
	case rank == 0:
		want = bodyVec
	}
	switch {
	case r.Err() != nil:
	case kind < errKindNone || kind > errKindOther:
		r.Failf("unknown error kind %d", kind)
	case body != want:
		r.Failf("%v outcome carries body %d, want %d", op, body, want)
	case body == bodyVec:
		if o.rank = r.Floats(); r.Err() == nil && len(o.rank) != n {
			r.Failf("%d-element result vector, want n = %d", len(o.rank), n)
		}
	case body == bodyBucket:
		o.edges = r.Edges()
	case body == bodyBlock:
		o.st = &rankState{lo: r.Int(), blk: &sparse.CSR{N: r.Int()}}
		o.st.blk.RowPtr, o.st.blk.Col, o.st.blk.Val = r.Block()
		if r.Close() == nil {
			if err := checkBlock(o.st, n, p, rank); err != nil {
				r.Failf("block: %v", err)
			}
		}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("dist: rank %d outcome: %w", rank, err)
	}
	switch kind {
	case errKindAborted:
		o.err = errRunAborted
	case errKindFault:
		o.err = ErrFaultInjected
	case errKindOther:
		o.err = fmt.Errorf("dist: rank %d: %s", rank, msg)
	}
	return rep, nil
}

// checkBlock holds a block that arrived from a socket to what rank of p
// over n vertices must send: its own rows of all n columns, a valid CSR
// — so that assemble can trust it.  Dangling rows do not travel: only a
// rank's kernel 3 reads them, and it derives them from its block.
func checkBlock(st *rankState, n, p, rank int) error {
	lo, hi := blockBounds(n, p, rank)
	if b := st.blk; st.lo != lo || b.Rows() != hi-lo || b.N != n {
		return fmt.Errorf("not rows [%d,%d) of %d columns", lo, hi, n)
	}
	return st.blk.Validate()
}

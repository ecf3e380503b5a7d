package dist

// The socket worker: one OS process executing one rank of a socket
// fabric.  JoinFabric performs the handshake of DESIGN.md §13 — join
// the coordinator, build the rank mesh — then serves jobs until the
// coordinator closes the control link: each job runs the SAME rank
// program the in-process launcher spawns (runRank) over one long-lived
// sockFabric and reports a wireOutcome, and the kernel-3 operand built
// from the last run-matrix job's row block stays resident between jobs.
// Because the program, the collectives and the metering are shared, the
// socket mode's results and CommStats equal the other modes' bit for bit
// by construction.
//
// Two ways into this file: the prrankd binary calls JoinFabric
// explicitly, and the init hook below turns ANY dist-importing binary
// into a worker when the coordinator's spawn environment is present —
// which is how the coordinator self-spawns workers out of its own
// executable (prbench, a test binary, a server) without per-binary
// cooperation.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dist/fabric"
	"repro/internal/vfs"
)

const (
	// envJoin carries "network|address" of the coordinator to join; its
	// presence switches the process into worker mode at init.
	envJoin = "PRRANKD_JOIN"
	// envFabricID carries the fabric id the coordinator expects.
	envFabricID = "PRRANKD_FABRIC"
)

// init is the self-spawn hook: a process launched with the coordinator's
// environment joins the fabric, serves its rank's jobs, and exits without
// ever reaching the binary's own main (or a test binary's test driver).
func init() {
	spec := os.Getenv(envJoin)
	if spec == "" {
		return
	}
	network, addr, ok := strings.Cut(spec, "|")
	if !ok {
		fmt.Fprintf(os.Stderr, "prrankd: malformed %s=%q, want network|address\n", envJoin, spec)
		os.Exit(2)
	}
	if err := JoinFabric(context.Background(), network, addr, os.Getenv(envFabricID)); err != nil {
		fmt.Fprintln(os.Stderr, "prrankd:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// JoinFabric joins the socket fabric whose coordinator listens at addr
// ("unix" socket path or "tcp" host:port) as one worker rank: it
// handshakes, builds its share of the rank mesh, then serves jobs until
// the coordinator closes the control link — one job under a one-shot
// Execute, many under a Session — reporting each outcome, and returns.
// fabricID must match the coordinator's (Spec.Socket.FabricID for an
// external fabric).  A rank-program failure is reported through the
// outcome, not the returned error, which covers only transport and
// protocol failures.  Cancelling ctx hangs up on the coordinator, which
// unwinds a running rank at its next cancellation point.
func JoinFabric(ctx context.Context, network, addr, fabricID string) error {
	if network == "" {
		network = "unix"
	}
	var meshStats, ctrlStats fabric.Stats

	// The worker's own mesh listener must exist before it announces its
	// address in the join; higher ranks may dial the moment the
	// coordinator forwards it.
	meshAddr, meshDir := "", ""
	switch network {
	case "unix":
		dir, err := os.MkdirTemp("", "prrankd")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		meshAddr, meshDir = filepath.Join(dir, "mesh.sock"), dir
	case "tcp":
		meshAddr = "127.0.0.1:0"
	default:
		return fmt.Errorf("dist: unknown fabric network %q (want unix or tcp)", network)
	}
	meshLn, err := fabric.Listen(network, meshAddr)
	if err != nil {
		return err
	}
	defer meshLn.Close()
	meshAddr = meshLn.Addr().String()

	ctrl, err := fabric.Dial(network, addr, 0, &ctrlStats)
	if err != nil {
		return err
	}
	defer ctrl.Close()
	err = ctrl.WriteControl(fabric.FrameJoin, 0, 0, fabric.AppendJoin(nil, fabric.Join{
		FabricID: fabricID, MeshNetwork: network, MeshAddr: meshAddr,
	}))
	if err != nil {
		return err
	}
	h, payload, err := ctrl.ReadFrame()
	if err != nil {
		return err
	}
	switch h.Type {
	case fabric.FrameWelcome:
	case fabric.FrameReject:
		return fmt.Errorf("dist: fabric rejected worker: %s", payload)
	default:
		return fmt.Errorf("dist: unexpected %v frame in place of welcome", h.Type)
	}
	w, err := fabric.ParseWelcome(payload)
	if err != nil {
		return err
	}
	rank, p := w.Rank, w.Procs

	// Mesh construction: one connection per unordered rank pair — this
	// rank dials every lower rank and accepts one connection from every
	// higher rank, validating each hello against the fabric id.
	peers := make([]*fabric.Link, p)
	closeMesh := func() {
		for _, l := range peers {
			if l != nil {
				l.Close()
			}
		}
	}
	for s := 0; s < rank; s++ {
		ln, err := fabric.Dial(w.MeshNetwork, w.MeshAddrs[s], 0, &meshStats)
		if err != nil {
			closeMesh()
			return fmt.Errorf("dist: rank %d dialing rank %d: %w", rank, s, err)
		}
		peers[s] = ln
		err = ln.WriteControl(fabric.FrameMeshHello, rank, s, fabric.AppendMeshHello(nil, fabric.MeshHello{
			FabricID: fabricID, Src: rank, Dst: s,
		}))
		if err != nil {
			closeMesh()
			return err
		}
	}
	for need := p - 1 - rank; need > 0; need-- {
		conn, err := meshLn.Accept()
		if err != nil {
			closeMesh()
			return err
		}
		ln := fabric.NewLink(conn, 0, &meshStats)
		hh, hp, err := ln.ReadFrame()
		if err != nil || hh.Type != fabric.FrameMeshHello {
			ln.Close()
			closeMesh()
			return fmt.Errorf("dist: rank %d: bad mesh hello (%v)", rank, err)
		}
		mh, err := fabric.ParseMeshHello(hp)
		if err != nil || mh.FabricID != fabricID || mh.Dst != rank ||
			mh.Src <= rank || mh.Src >= p || peers[mh.Src] != nil {
			ln.Close()
			closeMesh()
			return fmt.Errorf("dist: rank %d: invalid mesh hello", rank)
		}
		peers[mh.Src] = ln
	}
	meshLn.Close()
	if meshDir != "" {
		os.RemoveAll(meshDir) // the mesh is built: a worker killed while resident leaves nothing behind
	}

	if err := ctrl.WriteControl(fabric.FrameReady, rank, rank, nil); err != nil {
		closeMesh()
		return err
	}

	f := newSockFabric(rank, p, peers)
	defer f.shutdown()
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A cancelled ctx hangs up on the coordinator, which unwinds exactly
	// like the coordinator hanging up on the worker — mid-job or idle.
	defer context.AfterFunc(ctx, func() { ctrl.Close() })()

	// The control reader: delivers jobs (with the operand frames that
	// follow one) to the loop below, routes checkpoint acks to the rank
	// program, and converts a lost coordinator into a local abort —
	// which is also how a cancelled or failed run reaches a worker that
	// is not inside a mesh collective (p = 1 especially).  It exits when
	// the control connection dies, coordinator- or worker-initiated.
	jobs := make(chan workerJob)
	acks := make(chan string, 1)
	var ctrlErr error // why the reader left; published by close(jobs)
	//prlint:allow determinism -- control-link reader: routes jobs, acks and teardown only, joins via jobs before JoinFabric returns
	go func() {
		defer close(jobs)
		defer f.abort()
		defer cancel()
		for ctrlErr == nil {
			var h fabric.Header
			var payload []byte
			if h, payload, ctrlErr = ctrl.ReadFrame(); ctrlErr != nil {
				return
			}
			switch h.Type {
			case fabric.FrameCkptAck:
				select {
				case acks <- string(payload):
				case <-wctx.Done():
				}
			case fabric.FrameJob:
				var wj workerJob
				if wj, ctrlErr = readJob(ctrl, payload, rank, p); ctrlErr == nil {
					select {
					case jobs <- wj:
					case <-wctx.Done():
					}
				}
			default:
				ctrlErr = fmt.Errorf("dist: unexpected %v frame on the control link", h.Type)
			}
		}
	}()

	// Serve jobs until the coordinator hangs up.  The operand of the last
	// run-matrix job stays resident: a later job that ships none runs on
	// it.
	var resident *rankOperand
	var reported fabric.Counters // a job's Wire is the mesh traffic since the last report; the first job's includes the mesh hellos
	for wj := range jobs {
		if wj.k3 != nil {
			resident = wj.k3
		}
		out := runWorkerRank(wctx, f, ctrl, rank, wj.job, resident, acks)
		if out.ErrKind != errKindNone {
			// Mirror spawnRanks' teardown: a failed rank brings the fabric
			// down so no peer waits for it.
			f.abort()
		}
		now := meshStats.Snapshot()
		out.Wire, reported = wireCounters(now.Sub(reported)), now
		// Rank 0's final vector goes home raw, ahead of the outcome that
		// announces its length.
		buf, err := encodeGob(out)
		if err == nil && out.VecLen > 0 {
			err = ctrl.WriteControlVec(rank, rank, out.rankVec)
		}
		if err == nil {
			err = ctrl.WriteControl(fabric.FrameOutcome, rank, rank, buf)
		}
		if err != nil || out.ErrKind != errKindNone {
			// The session is over: the coordinator tears a fabric down on
			// any failure.  When it already hung up on this worker — it
			// deliberately unwound it and is not waiting for the outcome —
			// exiting quietly keeps induced teardown noise out of the
			// inherited stderr.
			ctrl.Close()
			for range jobs {
			}
			if out.ErrKind == errKindAborted {
				return nil
			}
			return err
		}
	}
	if errors.Is(ctrlErr, io.EOF) {
		return nil // the coordinator hung up between jobs: a clean end
	}
	return ctrlErr
}

// workerJob is one received job: the spec and, when the coordinator
// shipped one, the rank's new resident operand.
type workerJob struct {
	job *wireJob
	k3  *rankOperand
}

// readJob decodes a job frame and, when it announces an operand, reads
// and validates the block frame behind it and builds the kernel-3
// operand from it, once per shipped block; the block itself is dropped.
// The arrays arrive from a socket: nothing about them is trusted until
// checked.
func readJob(ctrl *fabric.Link, payload []byte, rank, p int) (workerJob, error) {
	job := new(wireJob)
	if err := decodeGob(payload, job); err != nil {
		return workerJob{}, err
	}
	if job.Procs != p {
		return workerJob{}, fmt.Errorf("dist: job for p = %d on a fabric of %d", job.Procs, p)
	}
	if !job.ShipOperand {
		return workerJob{job: job}, nil
	}
	if job.N < 1 {
		return workerJob{}, fmt.Errorf("dist: operand for n = %d", job.N)
	}
	h, payload, err := ctrl.ReadFrame()
	if err != nil {
		return workerJob{}, err
	}
	if h.Type != fabric.FrameBlock {
		return workerJob{}, fmt.Errorf("dist: unexpected %v frame in place of the operand block", h.Type)
	}
	lo, hi := blockBounds(job.N, p, rank)
	blk := &block{lo: lo, hi: hi, n: job.N}
	if blk.rowPtr, blk.col, blk.val, err = fabric.DecodeBlock(payload); err != nil {
		return workerJob{}, err
	}
	if len(blk.rowPtr) != hi-lo+1 {
		return workerJob{}, fmt.Errorf("dist: rank %d operand block has %d rows, want rows [%d,%d)", rank, len(blk.rowPtr)-1, lo, hi)
	}
	for _, c := range blk.col {
		if int(c) >= job.N {
			return workerJob{}, fmt.Errorf("dist: rank %d operand block: column %d out of range n = %d", rank, c, job.N)
		}
	}
	st := &rankState{blk: blk}
	for i, d := range blk.outDegrees() {
		if d == 0 {
			st.danglingRows = append(st.danglingRows, lo+i)
		}
	}
	return workerJob{job: job, k3: st.operand()}, nil
}

// runWorkerRank executes the rank program for one job, mirroring the
// per-rank body of spawnRanks: the fabricDown panic becomes the aborted
// outcome, wall clock is reported, and every failure classifies into a
// wire error kind.
func runWorkerRank(ctx context.Context, f *sockFabric, ctrl *fabric.Link, rank int, job *wireJob, resident *rankOperand, acks <-chan string) *wireOutcome {
	c := newRankComm(f, rank)
	//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
	start := time.Now()
	res := func() (res rankOutcome) {
		defer func() {
			if e := recover(); e != nil {
				if _, down := e.(fabricDown); down {
					res = rankOutcome{err: errRunAborted}
					return
				}
				panic(e)
			}
		}()
		in, err := workerInput(ctx, ctrl, rank, job, resident, acks)
		if err != nil {
			return rankOutcome{err: err}
		}
		return runRank(ctx, c, in)
	}()
	out := wireOutcomeOf(rank, Op(job.Op), res)
	out.Comm = c.st
	//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
	out.Seconds = time.Since(start).Seconds()
	return out
}

// workerInput decodes a job into the rank program's input: the shared
// fields verbatim, plus what cannot cross a process boundary rebuilt on
// this side — a private spill store, the progress relay, the checkpoint
// relay, and the resident operand.
func workerInput(ctx context.Context, ctrl *fabric.Link, rank int, job *wireJob, resident *rankOperand, acks <-chan string) (*rankInput, error) {
	in := &rankInput{
		op: Op(job.Op), edges: edgesOf(job.EdgesU, job.EdgesV), n: job.N, k3: resident,
		workers: job.Workers, opt: job.Opt.options(),
	}
	switch in.op {
	case OpSortExternal:
		codec, err := codecByName(job.Ext.CodecName)
		if err != nil {
			return nil, err
		}
		// Each worker spills to its own private in-memory store; the run
		// files are rank-private temporaries removed before the rank
		// returns, so only the metered counters are observable.
		in.ext = ExtSortConfig{FS: vfs.NewMem(), RunEdges: job.Ext.RunEdges, TmpPrefix: job.Ext.TmpPrefix, Codec: codec}
	case OpRunMatrix:
		if resident == nil || resident.at.N() != job.N {
			return nil, fmt.Errorf("dist: run-matrix job for n = %d, but no such operand is resident", job.N)
		}
	}
	if job.ReportProgress && rank == 0 {
		// Relay rank 0's per-iteration progress to the coordinator,
		// which invokes the caller's (already resume-offset) hook.  A
		// failed relay is ignored here: a dead control link is about
		// to abort the run through the control reader anyway.
		in.opt.Progress = func(it int) {
			_ = ctrl.WriteControl(fabric.FrameProgress, rank, rank,
				binary.LittleEndian.AppendUint64(nil, uint64(it)))
		}
	}
	in.ck = workerCkpt(ctx, job, ctrl, rank, acks)
	return in, nil
}

// workerCkpt builds the worker-side checkpoint/fault runtime: the same
// ckptRun that drives afterRank everywhere, with storage relayed to the
// coordinator — chunk and commit frames answered by acks — and
// FaultPlan.Hard wired to a genuine process death.
func workerCkpt(ctx context.Context, job *wireJob, ctrl *fabric.Link, rank int, acks <-chan string) *ckptRun {
	if !job.Ckpt.On && job.Fault == nil {
		return nil
	}
	relay := func(t fabric.FrameType, payload []byte) error {
		if err := ctrl.WriteControl(t, rank, rank, payload); err != nil {
			return err
		}
		select {
		case msg := <-acks:
			if msg != "" {
				return errors.New(msg)
			}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ck := &ckptRun{
		spec:      CheckpointSpec{Every: job.Ckpt.Every},
		fault:     job.Fault,
		n:         job.Ckpt.N,
		procs:     int64(job.Procs),
		damping:   job.Ckpt.Damping,
		base:      job.Ckpt.Base,
		relay:     job.Ckpt.On,
		committed: func(int64) {}, // the coordinator records commits as it writes them
		hardExit:  func() { os.Exit(3) },
	}
	if job.Ckpt.On {
		ck.putChunk = func(chunk *ckpt.Chunk) error {
			var buf bytes.Buffer
			if err := ckpt.Encode(&buf, chunk); err != nil {
				return err
			}
			return relay(fabric.FrameCkptChunk, buf.Bytes())
		}
		ck.putCommit = func(g int64) error {
			return relay(fabric.FrameCkptCommit, binary.LittleEndian.AppendUint64(nil, uint64(g)))
		}
	}
	return ck
}

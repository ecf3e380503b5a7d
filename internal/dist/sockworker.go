package dist

// The socket worker: one OS process executing one rank of a socket
// fabric.  JoinFabric performs the handshake of DESIGN.md §13 — join
// the coordinator, build the rank mesh — then serves jobs until the
// coordinator closes the control link: each job runs the SAME rank
// program the in-process launcher spawns (runRank) over one long-lived
// sockFabric and reports its outcome, and the kernel-3 operand built
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
// external fabric); the worker's links take the per-frame deadline the
// welcome names (SocketSpec.IOTimeout).  A rank-program failure is
// reported through the outcome, not the returned error, which covers only
// transport and protocol failures.  Cancelling ctx hangs up on the
// coordinator, which unwinds a running rank at its next cancellation
// point.
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
	ctrl.SetTimeout(w.IOTimeout)

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
		ln, err := fabric.Dial(w.MeshNetwork, w.MeshAddrs[s], w.IOTimeout, &meshStats)
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
		ln := fabric.NewLink(conn, w.IOTimeout, &meshStats)
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

	// The control reader: delivers decoded jobs to the loop below, routes checkpoint acks to the rank
	// program, and converts a lost coordinator into a local abort —
	// which is also how a cancelled or failed run reaches a worker that
	// is not inside a mesh collective (p = 1 especially).  It exits when
	// the control connection dies, coordinator- or worker-initiated.
	jobs := make(chan *rankInput)
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
				var wj *rankInput
				if wj, ctrlErr = parseJob(payload, rank, p); ctrlErr == nil {
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
		rep := runWorkerRank(wctx, f, ctrl, rank, wj, resident, acks)
		if rep.out.err != nil {
			// Mirror spawnRanks' teardown: a failed rank brings the fabric
			// down so no peer waits for it.
			f.abort()
		}
		now := meshStats.Snapshot()
		rep.wire, reported = wireCounters(now.Sub(reported)), now
		err := ctrl.WriteControl(fabric.FrameOutcome, rank, rank, encodeOutcome(rank, rep))
		if err != nil || rep.out.err != nil {
			// The session is over: the coordinator tears a fabric down on
			// any failure.  When it already hung up on this worker — it
			// deliberately unwound it and is not waiting for the outcome —
			// exiting quietly keeps induced teardown noise out of the
			// inherited stderr.
			ctrl.Close()
			for range jobs {
			}
			if errToKind(rep.out.err) == errKindAborted {
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

// runWorkerRank executes the rank program for one decoded job, mirroring
// the per-rank body of spawnRanks — the fabricDown panic becomes the
// aborted outcome, and the rank's communication record and wall clock
// are reported with it — once in holds what cannot cross a process
// boundary: the resident operand, the progress relay, the checkpoint
// relay and the hard-fault exit.
func runWorkerRank(ctx context.Context, f *sockFabric, ctrl *fabric.Link, rank int, in *rankInput, resident *rankOperand, acks <-chan string) *report {
	c := newRankComm(f, rank)
	//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
	start := time.Now()
	in.k3 = resident
	if in.opt.Progress != nil && rank == 0 {
		// Relay rank 0's per-iteration progress to the coordinator,
		// which invokes the caller's (already resume-offset) hook.  A
		// failed relay is ignored here: a dead control link is about
		// to abort the run through the control reader anyway.
		in.opt.Progress = func(it int) {
			_ = ctrl.WriteControl(fabric.FrameProgress, rank, rank,
				binary.LittleEndian.AppendUint64(nil, uint64(it)))
		}
	}
	if ck := in.ck; ck != nil {
		// The job's checkpoint/fault runtime — the same ckptRun that
		// drives afterRank everywhere — with storage relayed to the
		// coordinator (chunk and commit frames answered by acks) and
		// FaultPlan.Hard wired to a genuine process death.
		ck.hardExit = func() { os.Exit(3) }
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
		if ck.relay {
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
	}
	out := func() (res rankOutcome) {
		defer func() {
			if e := recover(); e != nil {
				if _, down := e.(fabricDown); down {
					res = rankOutcome{err: errRunAborted}
					return
				}
				panic(e)
			}
		}()
		if in.op == OpRunMatrix && (resident == nil || resident.at.N() != in.n) {
			return rankOutcome{err: fmt.Errorf("dist: run-matrix job for n = %d, but no such operand is resident", in.n)}
		}
		return runRank(ctx, c, in)
	}()
	//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
	return &report{out: out, comm: c.st, seconds: time.Since(start).Seconds()}
}

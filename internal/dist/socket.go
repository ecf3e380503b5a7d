package dist

// The socket coordinator: ExecSocket's launcher.  This file does what
// spawnRanks does in process — bring up p ranks, hand each the rank
// program's input, join them, fold their outcomes — except the ranks are
// separate OS processes reached over real sockets (DESIGN.md §13).  The fabric is a Session with three phases:
//
//	open   — listen on the control address (unix or tcp); spawn p
//	         copies of this binary with the join environment
//	         (sockworker.go's init hook) unless Socket.External asks for
//	         workers started by hand (cmd/prrankd); admit p joins,
//	         assigning ranks in join order and rejecting strays by
//	         fabric id; welcome every worker with the mesh address
//	         table and await the p ready frames proving the
//	         worker-to-worker mesh is up; start one control reader per
//	         worker.
//	job*   — send every rank its job frame, all ranks at once: its own
//	         chunk of the edge list or, when a run-matrix job names an
//	         operand the workers do not hold, its own row block; the
//	         control readers relay progress and checkpoint traffic until
//	         each worker's outcome frame (or its death) arrives; fold
//	         the outcomes exactly like spawnRanks: context error first,
//	         then the originating failure in rank order, then the
//	         aborted sentinel.
//	close  — hang up every control link, which is how a worker learns
//	         there are no more jobs; reap the children.
//
// Execute without Spec.Session is open, one job, close.  Teardown
// mirrors the goroutine fabric's plane: the first failure — a worker
// death, a failed outcome, a cancelled context — closes the listener
// (while the handshake still has one) and every control link and ends
// the session.  Each surviving worker's
// control reader turns that into a local cancel plus mesh abort, so
// every process unwinds; the tearing flag keeps the induced follow-on
// errors classified as the aborted sentinel, preserving the originating
// error's precedence.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dist/fabric"
)

// DefaultJoinTimeout bounds the socket handshake: listen to all ranks
// ready.  It covers p process spawns plus a p²/2-connection mesh on a
// loaded CI host, while still failing a genuinely missing worker.
const DefaultJoinTimeout = 60 * time.Second

// SocketSpec configures the socket execution mode (Spec.Socket).  The
// zero value is fully usable: a private unix-domain fabric on an
// auto-assigned address, workers self-spawned from the current binary.
type SocketSpec struct {
	// Network is the fabric's address family: "unix" (the default) or
	// "tcp".  Control and mesh connections use the same family.
	Network string
	// Addr is the coordinator's listen address — a socket path for
	// "unix", host:port for "tcp".  Empty picks a private temporary path
	// ("unix") or a loopback port ("tcp"); OnListen reports the result.
	Addr string
	// External suppresses self-spawning: the coordinator listens and
	// waits for p externally started workers (cmd/prrankd) to join.
	// FabricID is then required, since the workers must present it.
	External bool
	// FabricID authenticates joins.  Empty (with External unset) selects
	// a random id, which the spawn environment hands the children.
	FabricID string
	// IOTimeout is the per-frame deadline on every fabric connection,
	// the workers' control and mesh links included (the welcome carries
	// it): 0 selects fabric.DefaultIOTimeout, negative disables deadlines.
	IOTimeout time.Duration
	// JoinTimeout bounds the whole handshake (listen to all ranks
	// ready); <= 0 selects DefaultJoinTimeout.
	JoinTimeout time.Duration
	// OnListen, when non-nil, observes the resolved listen address
	// before any worker is admitted — how an External caller learns an
	// auto-assigned address to start workers against.
	OnListen func(network, addr string)
}

// newFabricID mints a random fabric id for a self-spawned fabric.
func newFabricID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// Session is an open socket fabric: p worker processes admitted, meshed
// and serving jobs until Close.  Execute runs on it when Spec.Session is
// set, one job at a time; between jobs the workers keep the row blocks
// of the last run-matrix operand resident, so a job naming the same
// Spec.OperandID ships options and the initial vector only.  Any job
// failure — a rank error, a worker death, a cancelled context — ends the
// session (Err reports the cause); the owner Closes it and opens
// another.
type Session struct {
	p     int
	cmds  []*exec.Cmd // self-spawned workers, reaped by Close
	stats fabric.Stats

	// operand is the OperandID whose row blocks the workers hold ("" =
	// none); only the job in flight touches it.
	operand string

	tearing   atomic.Bool
	readers   sync.WaitGroup
	closeOnce sync.Once

	mu    sync.Mutex
	ctrls []*fabric.Link
	err   error    // first failure: the session serves no more jobs
	job   *sessJob // the job in flight, nil between jobs
}

// sessJob is the coordinator's half of one job: where the control
// readers deliver each rank's outcome or failure.  Slot r is written by
// rank r's reader alone.
type sessJob struct {
	op       Op
	n        int                 // the job's vertex count, which the ranks' row blocks tile
	progress func(iteration int) // the caller's hook, fed by rank 0's progress frames
	ck       *ckptRun
	outs     []*report
	pending  sync.WaitGroup
}

// finish records rank r's end of the job, once: its report, or its
// failure as one.
func (j *sessJob) finish(r int, out *report, err error) {
	if err != nil {
		out = &report{out: rankOutcome{err: err}}
	}
	if j.outs[r] == nil {
		j.outs[r] = out
		j.pending.Done()
	}
}

var errSessionClosed = errors.New("dist: socket session closed")

// OpenSession brings up a socket fabric of p worker processes and
// returns it ready for jobs.  ctx bounds the handshake only.
func OpenSession(ctx context.Context, p int, sk SocketSpec) (s *Session, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p < 1 {
		return nil, fmt.Errorf("dist: socket fabric with p = %d, want >= 1", p)
	}
	network := sk.Network
	if network == "" {
		network = "unix"
	}
	fabricID := sk.FabricID
	if fabricID == "" {
		if sk.External {
			return nil, fmt.Errorf("dist: external socket fabric requires Socket.FabricID")
		}
		if fabricID, err = newFabricID(); err != nil {
			return nil, err
		}
	}
	// Every failure below returns a nil session, so the teardown holds its
	// own reference — as does the join timer, which may fire after it.
	s = &Session{p: p}
	sess := s
	defer func() {
		if err != nil {
			sess.Close()
		}
	}()
	addr := sk.Addr
	if addr == "" {
		switch network {
		case "unix":
			// The address is a rendezvous: once every worker has joined,
			// nothing dials it again, so it does not outlive the handshake.
			dir, err := os.MkdirTemp("", "prfabric")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			addr = filepath.Join(dir, "coord.sock")
		case "tcp":
			addr = "127.0.0.1:0"
		default:
			return nil, fmt.Errorf("dist: unknown fabric network %q (want unix or tcp)", network)
		}
	}
	ln, err := fabric.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	addr = ln.Addr().String()
	if sk.OnListen != nil {
		sk.OnListen(network, addr)
	}

	// Self-spawn: p copies of this very binary, flipped into worker mode
	// by the join environment (sockworker.go's init hook).  Stderr is
	// inherited so a worker's crash is visible.
	if !sk.External {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		env := append(os.Environ(),
			envJoin+"="+network+"|"+addr,
			envFabricID+"="+fabricID)
		for i := 0; i < p; i++ {
			cmd := exec.Command(exe)
			cmd.Env = env
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, fmt.Errorf("dist: spawning worker %d: %w", i, err)
			}
			s.cmds = append(s.cmds, cmd)
		}
	}

	// Admission under the join timer: accept until p workers presented
	// the fabric id, assigning ranks in join order; strays are rejected.
	// The timer and a cancelled ctx both tear the half-built fabric down,
	// which unblocks whichever accept or read the handshake is in.
	joinTimeout := sk.JoinTimeout
	if joinTimeout <= 0 {
		joinTimeout = DefaultJoinTimeout
	}
	var timedOut atomic.Bool
	abort := func() {
		ln.Close()
		sess.teardown()
	}
	timer := time.AfterFunc(joinTimeout, func() {
		timedOut.Store(true)
		abort()
	})
	defer timer.Stop()
	stopCtx := context.AfterFunc(ctx, abort)
	defer stopCtx()
	// A peer from another build is turned away like any stray, but the
	// version it spoke is why a handshake that then times out failed.
	var versionErr error
	joinErr := func(stage string, err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if timedOut.Load() {
			msg := fmt.Sprintf("dist: socket fabric %s timed out after %v (%d of %d workers joined)", stage, joinTimeout, len(s.ctrls), p)
			if versionErr != nil {
				return fmt.Errorf("%s: %w", msg, versionErr)
			}
			return errors.New(msg)
		}
		return fmt.Errorf("dist: socket fabric %s: %w", stage, err)
	}
	meshAddrs := make([]string, 0, p)
	for len(meshAddrs) < p {
		conn, err := ln.Accept()
		if err != nil {
			return nil, joinErr("join", err)
		}
		c := fabric.NewLink(conn, sk.IOTimeout, &s.stats)
		h, payload, err := c.ReadFrame()
		if err != nil || h.Type != fabric.FrameJoin {
			if errors.As(err, new(*fabric.VersionError)) {
				versionErr = err
			}
			c.Close()
			continue
		}
		j, err := fabric.ParseJoin(payload)
		if err != nil || j.FabricID != fabricID || j.MeshNetwork != network {
			_ = c.WriteControl(fabric.FrameReject, 0, 0, []byte("dist: join rejected: wrong fabric id or network"))
			c.Close()
			continue
		}
		s.mu.Lock()
		s.ctrls = append(s.ctrls, c)
		s.mu.Unlock()
		if s.tearing.Load() {
			c.Close() // raced the teardown's sweep
		}
		meshAddrs = append(meshAddrs, j.MeshAddr)
	}

	// Welcome each rank with the full address table, then await the p
	// ready frames proving the worker mesh is complete.
	for r, c := range s.ctrls {
		err := c.WriteControl(fabric.FrameWelcome, r, r, fabric.AppendWelcome(nil, fabric.Welcome{
			Rank: r, Procs: p, IOTimeout: sk.IOTimeout, MeshNetwork: network, MeshAddrs: meshAddrs,
		}))
		if err != nil {
			return nil, joinErr("welcome", err)
		}
	}
	for r, c := range s.ctrls {
		h, _, err := c.ReadFrame()
		if err != nil || h.Type != fabric.FrameReady {
			if err == nil {
				err = fmt.Errorf("unexpected %v frame from rank %d in place of ready", h.Type, r)
			}
			return nil, joinErr("mesh", err)
		}
	}
	if !timer.Stop() || !stopCtx() {
		return nil, joinErr("mesh", errSessionClosed)
	}
	for r, c := range s.ctrls {
		s.readers.Add(1)
		//prlint:allow determinism -- per-worker control reader: relays storage and progress and watches for the worker's death; Close joins it
		go s.serve(r, c)
	}
	return s, nil
}

// teardown is the session's teardown plane: it closes every control
// link, unblocking whatever the coordinator is reading or writing.
// Idempotent, safe from any goroutine.
func (s *Session) teardown() {
	s.tearing.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.ctrls {
		c.Close()
	}
}

// fail ends the session with err (the first failure wins), trips the
// teardown plane and returns the job in flight, if any.  Recording the
// failure and reading the job under one lock is what lets run refuse a
// job on a session whose reader already left.
func (s *Session) fail(err error) *sessJob {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	j := s.job
	s.mu.Unlock()
	s.teardown()
	return j
}

// Err reports why the session can serve no more jobs; nil while it can.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close hangs up on the workers — the signal that there are no more
// jobs — joins the control readers and reaps self-spawned children.
// Idempotent.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.fail(errSessionClosed)
		s.readers.Wait()
		reapWorkers(s.cmds)
	})
	return nil
}

// serve is worker r's control reader for the whole session: it hands
// every frame to the job in flight and, when the link dies or the
// worker reports a failure, ends the session.  A dead link between jobs
// is how an idle worker's death is noticed before the next job is sent.
func (s *Session) serve(r int, c *fabric.Link) {
	defer s.readers.Done()
	for {
		h, payload, err := c.ReadFrame()
		s.mu.Lock()
		j := s.job
		s.mu.Unlock()
		var rep *report
		switch {
		case err == nil && j == nil:
			err = fmt.Errorf("dist: rank %d sent a %v frame between jobs", r, h.Type)
		case err == nil:
			if rep, err = j.frame(r, c, h, payload); rep == nil && err == nil {
				continue // a relayed frame; the job goes on
			}
			if err != nil && s.tearing.Load() {
				// The teardown closed the link under a relay's ack: induced,
				// like a failed read, and must not outrank the cause.
				err = errRunAborted
			}
		case s.tearing.Load():
			err = errRunAborted
		default:
			err = fmt.Errorf("dist: rank %d worker died: %v", r, err)
		}
		if err != nil {
			j = s.fail(err)
		} else if rep.out.err != nil {
			s.fail(rep.out.err)
		}
		if j != nil {
			j.finish(r, rep, err)
		}
		if err != nil {
			return
		}
	}
}

// frame handles one control frame of rank r during a job: progress and
// checkpoint frames are relayed — chunks and commits land on the
// coordinator's storage through the same ckpt calls the goroutine ranks
// make, and the acks carry the write errors back into the workers'
// agreeError barriers, so the epoch protocol, torn-epoch semantics
// included, is the goroutine mode's verbatim — and the outcome frame is
// returned decoded.  Only rank 0 reports progress and commits an epoch,
// and a rank relays only its own chunk: anything else is refused.
func (j *sessJob) frame(rank int, c *fabric.Link, h fabric.Header, payload []byte) (*report, error) {
	ck := j.ck
	ack := func(err error) error {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if err := c.WriteControl(fabric.FrameCkptAck, rank, rank, []byte(msg)); err != nil {
			return fmt.Errorf("dist: rank %d checkpoint ack: %v", rank, err)
		}
		return nil
	}
	switch {
	case rank != 0 && (h.Type == fabric.FrameProgress || h.Type == fabric.FrameCkptCommit):
		return nil, fmt.Errorf("dist: rank %d sent a %v frame; only rank 0 does", rank, h.Type)
	case (h.Type == fabric.FrameCkptChunk || h.Type == fabric.FrameCkptCommit) && (ck == nil || !ck.spec.enabled()):
		return nil, ack(errors.New("dist: checkpoint relay without coordinator storage"))
	}
	switch h.Type {
	case fabric.FrameProgress:
		if j.progress != nil && len(payload) == 8 {
			j.progress(int(binary.LittleEndian.Uint64(payload)))
		}
		return nil, nil
	case fabric.FrameCkptChunk:
		chunk, err := ckpt.Decode(bytes.NewReader(payload))
		if lo, hi := blockBounds(int(ck.n), int(ck.procs), rank); err == nil &&
			(chunk.Rank != int64(rank) || chunk.Lo != int64(lo) || chunk.Hi != int64(hi) || chunk.N != ck.n || chunk.Procs != ck.procs) {
			return nil, fmt.Errorf("dist: rank %d relayed rank %d's checkpoint chunk of rows [%d,%d), n = %d, p = %d; want rows [%d,%d), n = %d, p = %d",
				rank, chunk.Rank, chunk.Lo, chunk.Hi, chunk.N, chunk.Procs, lo, hi, ck.n, ck.procs)
		}
		if err == nil {
			err = ckpt.WriteChunk(ck.spec.FS, ck.spec.Prefix, chunk)
		}
		return nil, ack(err)
	case fabric.FrameCkptCommit:
		if len(payload) != 8 {
			return nil, fmt.Errorf("dist: rank %d sent a %d-byte checkpoint commit", rank, len(payload))
		}
		g := int64(binary.LittleEndian.Uint64(payload))
		err := ckpt.WriteCommit(ck.spec.FS, ck.spec.Prefix, g, ck.n, ck.procs, ck.damping)
		if err == nil {
			ck.noteCommitted(g)
		}
		return nil, ack(err)
	case fabric.FrameOutcome:
		return parseOutcome(payload, j.op, j.n, len(j.outs), rank)
	default:
		return nil, fmt.Errorf("dist: rank %d sent unexpected %v frame", rank, h.Type)
	}
}

// launchSocket runs spec's program on spec.Session's worker processes —
// or, without one, on a private session it opens and closes around the
// job — and joins the ranks.  ck (may be nil) supplies the
// coordinator-side checkpoint storage the workers' relay frames land on.
func launchSocket(ctx context.Context, spec Spec, ck *ckptRun) (*joined, error) {
	s := spec.Session
	if s == nil {
		var err error
		if s, err = OpenSession(ctx, spec.Procs, spec.Socket); err != nil {
			return nil, err
		}
		defer s.Close()
	}
	return s.run(ctx, spec, ck)
}

// run executes one job on the session's workers.  The caller serializes
// jobs; an error leaves the session ended.
func (s *Session) run(ctx context.Context, spec Spec, ck *ckptRun) (*joined, error) {
	p := s.p
	if spec.Procs != p {
		return nil, fmt.Errorf("dist: job for p = %d on a socket session of %d workers", spec.Procs, p)
	}
	// A run-matrix job whose operand the workers do not hold ships each
	// rank its own row block, viewed — not copied — out of the caller's
	// matrix.
	ship := spec.Op == OpRunMatrix && (spec.OperandID == "" || spec.OperandID != s.operand)
	j := &sessJob{op: spec.Op, n: specN(spec), progress: spec.PageRank.Progress, ck: ck, outs: make([]*report, p)}
	j.pending.Add(p)
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("dist: socket session is down: %w", s.err)
	}
	s.job = j
	s.mu.Unlock()
	stopCtx := context.AfterFunc(ctx, func() { s.fail(ctx.Err()) })
	setup := s.stats.Snapshot().ControlBytes
	if ship {
		s.operand = spec.OperandID
	}

	// Encode and ship, all ranks at once.
	var sends sync.WaitGroup
	for r, c := range s.ctrls {
		sends.Add(1)
		//prlint:allow determinism -- per-rank job sender: set-up traffic only, joined before run returns
		go func(r int, c *fabric.Link) {
			defer sends.Done()
			if job := encodeJob(spec, ck, r, ship); len(job) > fabric.DefaultMaxFrameBytes {
				s.fail(fmt.Errorf("dist: rank %d's %v job is %d bytes, past the %d-byte frame limit", r, spec.Op, len(job), fabric.DefaultMaxFrameBytes))
			} else if err := c.WriteControl(fabric.FrameJob, r, r, job); err != nil {
				s.fail(fmt.Errorf("dist: rank %d worker died: %v", r, err))
			}
		}(r, c)
	}
	sends.Wait()
	j.pending.Wait()
	stopCtx()
	s.mu.Lock()
	s.job = nil
	s.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Fold exactly like spawnRanks: the originating failure (in rank
	// order) outranks the aborted sentinel of the ranks it unwound.
	var aborted error
	for r := 0; r < p; r++ {
		switch err := j.outs[r].out.err; {
		case err == nil:
		case errors.Is(err, errRunAborted):
			aborted = err
		default:
			return nil, err
		}
	}
	if aborted != nil {
		if cause := s.Err(); cause != nil {
			return nil, cause
		}
		return nil, aborted
	}
	out := &joined{outcomes: make([]rankOutcome, p), seconds: make([]float64, p), wire: new(WireStats)}
	for r, rep := range j.outs {
		out.outcomes[r] = rep.out
		out.comm.Add(rep.comm)
		out.seconds[r] = rep.seconds
		out.wire.Add(rep.wire)
	}
	out.wire.SetupBytes = s.stats.Snapshot().ControlBytes - setup
	return out, nil
}

// reapWorkers waits for self-spawned workers, killing any that outlives
// the teardown grace period (a worker that neither finished nor noticed
// its closed control link is wedged).  Exit statuses are deliberately
// ignored: failures travel through outcomes and control-link errors.
func reapWorkers(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		kill := time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
		_ = cmd.Wait()
		kill.Stop()
	}
}

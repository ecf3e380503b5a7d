package dist

// Epoch checkpoint/restart of the distributed kernel-3 iteration, plus
// the rank-failure injection the chaos suite drives (DESIGN.md §10).
//
// Every CheckpointSpec.Every iterations the run writes one epoch to the
// spec's vfs.FS in the internal/ckpt format: one chunk per rank holding
// its block-local slice of the replicated rank vector, then a commit
// marker.  Chunk writes are two-phase (temp name + rename), the commit
// is written only after every chunk landed, and the ranks separate the
// phases with unmetered agreeError barriers — so a crash at any point
// leaves at worst a torn epoch that the loader detects and skips.  Checkpoint traffic is storage and control plane: CommStats,
// and therefore the §V closed form, are untouched.
//
// Resume loads the newest complete epoch before the run starts and feeds
// the recovered vector through the ordinary InitialRank broadcast, so a
// resumed segment's communication is exactly PredictedCommBytes over the
// remaining iterations and the final ranks are bit-for-bit the
// uninterrupted run's (the engine's update is deterministic and the
// epoch stores exact float64 bits).  Resume is p-independent: the loader
// reassembles the global vector from whatever decomposition the writing
// run used.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

// DefaultCheckpointEvery is the epoch length used when a CheckpointSpec
// enables checkpointing without choosing one.
const DefaultCheckpointEvery = 10

// CheckpointSpec configures epoch checkpoint/restart of the kernel-3
// iteration.  It applies to OpRun and OpRunMatrix; a nil FS disables
// checkpointing entirely.
type CheckpointSpec struct {
	// FS is the storage the epochs are written to and resumed from.
	FS vfs.FS
	// Every is the epoch length in iterations (DefaultCheckpointEvery
	// when <= 0): an epoch is written after every iteration count
	// divisible by Every.
	Every int
	// Prefix namespaces the epoch files within FS ("ckpt" by default).
	Prefix string
	// Resume loads the newest complete epoch under Prefix before
	// iterating and continues from it.  No complete epoch means a fresh
	// start, not an error.
	Resume bool
	// Keep bounds the committed epochs retained on storage: after each
	// commit, all but the newest Keep epochs are removed (best-effort).
	// Zero keeps every epoch.
	Keep int
	// OnCommit, when non-nil, observes each committed epoch (its
	// completed-iteration count).  It runs synchronously on the
	// committing goroutine — rank 0's in process, the control reader's in
	// the socket mode — and must be fast; the pipeline's Progress events
	// are built on it.
	OnCommit func(epoch int64)
	// OnResume, when non-nil, observes a successful resume load before
	// the run starts: the epoch continued from and the count of newer
	// torn epochs skipped to reach it.
	OnResume func(epoch int64, tornSkipped int)
}

// enabled reports whether the spec actually checkpoints.
func (cs CheckpointSpec) enabled() bool { return cs.FS != nil }

// withDefaults resolves the zero knobs.
func (cs CheckpointSpec) withDefaults() CheckpointSpec {
	if cs.Every <= 0 {
		cs.Every = DefaultCheckpointEvery
	}
	if cs.Prefix == "" {
		cs.Prefix = "ckpt"
	}
	return cs
}

// FaultPlan injects a rank failure into a kernel-3 run — the chaos
// harness's instrument.  The fault fires at the iteration boundary after
// AtIteration completed update steps (counted globally, across a resume):
// rank KillRank returns ErrFaultInjected from its post-iteration hook, the
// teardown plane unwinds its peers, and Execute returns ErrFaultInjected
// with no goroutine leaked, in every mode.  When the boundary is also an
// epoch boundary the epoch is committed first — unless DuringCheckpoint is
// set, which kills the rank between its chunk write and the commit
// barrier, manufacturing exactly the torn epoch the loader must skip.
//
// A FaultPlan describes one injection: the restarted run must not carry
// it over, or the fault re-fires when the boundary is re-reached.
type FaultPlan struct {
	// KillRank is the rank brought down, in [0, Procs).
	KillRank int
	// AtIteration is the global completed-iteration count at whose
	// boundary the fault fires (>= 1).
	AtIteration int
	// DuringCheckpoint moves the fault between the rank's chunk write
	// and the epoch commit; AtIteration must then be an epoch boundary.
	DuringCheckpoint bool
	// Hard, in the socket mode only, turns the failure into a genuine
	// process death: the killed rank's worker calls os.Exit at the fault
	// boundary instead of returning an error, so the coordinator observes
	// a peer vanishing mid-run — the failure class checkpoint/restart
	// exists for.  The run fails with the worker-death error rather than
	// ErrFaultInjected.  Rejected in the goroutine mode, which has no
	// process to kill.
	Hard bool
}

// ErrFaultInjected is the failure a FaultPlan's killed rank reports.
var ErrFaultInjected = errors.New("dist: injected rank failure")

// CheckpointStats records what the checkpoint machinery did during one
// Execute, reported on Result.Checkpoint.
type CheckpointStats struct {
	// Resumed reports whether a complete epoch was loaded.
	Resumed bool
	// ResumedFrom is the loaded epoch's completed-iteration count (0 on
	// a fresh start).
	ResumedFrom int64
	// TornSkipped counts newer epochs the loader skipped as torn.
	TornSkipped int
	// EpochsWritten counts epochs committed by this run.
	EpochsWritten int
	// LastEpoch is the newest epoch committed by this run (0 if none).
	LastEpoch int64
}

// ckptRun is the per-Execute checkpoint/fault runtime: the resolved
// spec, the resume base offset, and the running stats.  A nil *ckptRun
// means both features are off; every method tolerates the nil receiver.
// In process the struct is shared read-only across the ranks except
// stats, which only rank 0's hook mutates (the join's happens-before edge
// publishes it to the driver).
type ckptRun struct {
	spec    CheckpointSpec
	fault   *FaultPlan
	n       int64
	procs   int64
	damping float64
	base    int64
	stats   CheckpointStats

	// The relay seam (socket mode): on a worker process the storage the
	// epochs land on lives with the coordinator, so the worker-side
	// ckptRun has a nil spec.FS and relays chunk and commit writes over
	// its control link instead (sockworker.go wires these).  relay marks
	// checkpointing as enabled despite the nil FS and leaves the commit
	// records to the coordinator (the stats, the Keep pruning and the
	// OnCommit observer), since it performs the writes; hardExit
	// implements FaultPlan.Hard (a genuine os.Exit, socket workers only).
	relay     bool
	putChunk  func(*ckpt.Chunk) error
	putCommit func(epoch int64) error
	hardExit  func()
}

// enabled reports whether the runtime checkpoints — locally or by relay.
func (ck *ckptRun) enabled() bool { return ck.spec.enabled() || ck.relay }

// writeChunk lands one epoch chunk: directly on spec.FS, or through the
// relay on a socket worker.
func (ck *ckptRun) writeChunk(c *ckpt.Chunk) error {
	if ck.putChunk != nil {
		return ck.putChunk(c)
	}
	return ckpt.WriteChunk(ck.spec.FS, ck.spec.Prefix, c)
}

// writeCommit lands the epoch commit marker, directly or by relay.
func (ck *ckptRun) writeCommit(g int64) error {
	if ck.putCommit != nil {
		return ck.putCommit(g)
	}
	return ckpt.WriteCommit(ck.spec.FS, ck.spec.Prefix, g, ck.n, ck.procs, ck.damping)
}

// prepareCheckpoint validates the spec's checkpoint/fault configuration
// for OpRun/OpRunMatrix over n vertices, performs the resume load, and
// rewrites spec.PageRank for the remaining segment (initial vector,
// iteration count, progress offset).  A non-nil Result means the loaded
// epoch already covers the requested iterations and no run is needed.
func prepareCheckpoint(spec *Spec, n int) (*ckptRun, *Result, error) {
	if !spec.Checkpoint.enabled() && spec.Fault == nil {
		return nil, nil, nil
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("dist: checkpointed run with n = %d, want >= 1", n)
	}
	opt := &spec.PageRank
	total := opt.Iterations
	if total == 0 {
		total = pagerank.DefaultIterations
	}
	if total < 0 {
		return nil, nil, fmt.Errorf("dist: checkpointed run with %d iterations", total)
	}
	damping := opt.Damping
	if damping == 0 {
		damping = pagerank.DefaultDamping
	}
	ck := &ckptRun{
		spec:    spec.Checkpoint.withDefaults(),
		fault:   spec.Fault,
		n:       int64(n),
		procs:   int64(spec.Procs),
		damping: damping,
	}
	if f := spec.Fault; f != nil {
		if f.KillRank < 0 || f.KillRank >= spec.Procs {
			return nil, nil, fmt.Errorf("dist: fault plan kills rank %d of %d", f.KillRank, spec.Procs)
		}
		if f.AtIteration < 1 || f.AtIteration > total {
			return nil, nil, fmt.Errorf("dist: fault plan at iteration %d of %d", f.AtIteration, total)
		}
		if f.Hard && spec.Mode != ExecSocket {
			return nil, nil, fmt.Errorf("dist: hard fault plan requires the socket mode, not %v (no process to kill)", spec.Mode)
		}
		if f.DuringCheckpoint {
			if !spec.Checkpoint.enabled() {
				return nil, nil, fmt.Errorf("dist: fault plan during checkpoint, but checkpointing is off")
			}
			if f.AtIteration%ck.spec.Every != 0 {
				return nil, nil, fmt.Errorf("dist: fault plan during checkpoint at iteration %d, not an epoch boundary (every %d)", f.AtIteration, ck.spec.Every)
			}
		}
	}
	if ck.spec.enabled() && ck.spec.Resume {
		loaded, err := ckpt.Latest(ck.spec.FS, ck.spec.Prefix)
		switch {
		case errors.Is(err, ckpt.ErrNoCheckpoint):
			// Nothing to resume: a fresh start.
		case err != nil:
			return nil, nil, err
		default:
			if loaded.N != ck.n {
				return nil, nil, fmt.Errorf("dist: checkpoint is for n = %d, run has n = %d", loaded.N, ck.n)
			}
			if math.Float64bits(loaded.Damping) != math.Float64bits(damping) {
				return nil, nil, fmt.Errorf("dist: checkpoint damping %v != run damping %v", loaded.Damping, damping)
			}
			ck.base = loaded.Epoch
			ck.stats.Resumed = true
			ck.stats.ResumedFrom = loaded.Epoch
			ck.stats.TornSkipped = loaded.Torn
			if ck.spec.OnResume != nil {
				ck.spec.OnResume(loaded.Epoch, loaded.Torn)
			}
			if ck.base >= int64(total) {
				// The checkpoint already covers the request; no segment to
				// run.  (On OpRun the kernel-2 rebuild is skipped too, so
				// NNZ is not reported on this path.)
				return nil, &Result{
					Rank:       loaded.Rank,
					Iterations: int(ck.base),
					Checkpoint: ck.statsCopy(),
				}, nil
			}
			opt.InitialRank = loaded.Rank
			opt.Iterations = total - int(ck.base)
			if orig := opt.Progress; orig != nil {
				base := int(ck.base)
				opt.Progress = func(it int) { orig(base + it) }
			}
		}
	}
	return ck, nil, nil
}

// statsCopy snapshots the stats for a Result.
func (ck *ckptRun) statsCopy() *CheckpointStats {
	s := ck.stats
	return &s
}

// finish folds the checkpoint runtime into the run's Result: the resume
// base offsets the iteration count, and the stats are attached whenever
// checkpointing was on.
func (ck *ckptRun) finish(res *Result) {
	if ck == nil {
		return
	}
	res.Iterations += int(ck.base)
	if ck.spec.enabled() || ck.stats.Resumed {
		res.Checkpoint = ck.statsCopy()
	}
}

// noteCommitted records a committed epoch and prunes old ones when Keep
// is bounded.  Pruning is best-effort: the data of record is the commit
// that just landed, and a failed cleanup must not fail the run.
func (ck *ckptRun) noteCommitted(g int64) {
	ck.stats.EpochsWritten++
	ck.stats.LastEpoch = g
	if ck.spec.OnCommit != nil {
		ck.spec.OnCommit(g)
	}
	if ck.spec.Keep <= 0 {
		return
	}
	eps, err := ckpt.Epochs(ck.spec.FS, ck.spec.Prefix)
	if err != nil {
		return
	}
	for i := 0; i < len(eps)-ck.spec.Keep; i++ {
		_ = ckpt.RemoveEpoch(ck.spec.FS, ck.spec.Prefix, eps[i])
	}
}

// chunkOf frames one rank's slice of the replicated vector as an epoch
// chunk.  Data aliases r; the encoder consumes it immediately.
func (ck *ckptRun) chunkOf(g int64, r []float64, rank, lo, hi int) *ckpt.Chunk {
	return &ckpt.Chunk{
		Kind: ckpt.KindChunk, Epoch: g, N: ck.n, Procs: ck.procs,
		Rank: int64(rank), Lo: int64(lo), Hi: int64(hi),
		Damping: ck.damping, Data: r[lo:hi],
	}
}

// die implements FaultPlan.Hard at a fault boundary: on a socket worker
// it never returns (os.Exit); everywhere else it is a no-op and the
// caller returns ErrFaultInjected as usual (prepareCheckpoint rejects
// Hard outside the socket mode, so hardExit is always wired when Hard
// can be set).
func (ck *ckptRun) die() {
	if ck.fault.Hard && ck.hardExit != nil {
		ck.hardExit()
	}
}

// atFault reports whether the fault plan fires at global iteration g.
func (ck *ckptRun) atFault(g int64) bool {
	return ck.fault != nil && int64(ck.fault.AtIteration) == g
}

// epochBoundary reports whether g closes an epoch.
func (ck *ckptRun) epochBoundary(g int64) bool {
	return ck.enabled() && g%int64(ck.spec.Every) == 0
}

// afterRank builds one rank's post-iteration hook.  All
// replicas step in lockstep, so every rank reaches an epoch boundary
// together: each writes its own chunk, an agreeError barrier proves all
// chunks landed, rank 0 writes the commit, and a second barrier
// publishes the commit's fate — both barriers unmetered control plane,
// exactly like the out-of-core sort's.  A DuringCheckpoint fault returns
// between the chunk write and the first barrier, so the commit is never
// written and the epoch is torn; a plain fault returns after the epoch
// is fully committed.  Either way the teardown plane unwinds the peers
// blocked in the next collective.
func (ck *ckptRun) afterRank(c *rankComm, lo, hi int) func(int, []float64) error {
	if ck == nil {
		return nil
	}
	return func(it int, r []float64) error {
		g := ck.base + int64(it)
		killed := ck.atFault(g) && c.rank == ck.fault.KillRank
		if ck.epochBoundary(g) {
			werr := ck.writeChunk(ck.chunkOf(g, r, c.rank, lo, hi))
			if killed && ck.fault.DuringCheckpoint {
				ck.die()
				return ErrFaultInjected
			}
			if err := c.agreeError(werr); err != nil {
				return err
			}
			var cerr error
			if c.rank == 0 {
				cerr = ck.writeCommit(g)
			}
			if err := c.agreeError(cerr); err != nil {
				return err
			}
			if c.rank == 0 && !ck.relay {
				ck.noteCommitted(g)
			}
		}
		if killed {
			ck.die()
			return ErrFaultInjected
		}
		return nil
	}
}

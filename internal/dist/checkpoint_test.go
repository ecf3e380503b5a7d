package dist_test

// Property suite for the epoch checkpoint/restart of the distributed
// kernel-3 iteration (DESIGN.md §10): for every processor count,
// killing a run at any checkpoint epoch and restarting
// yields final ranks bit-for-bit equal to the uninterrupted run's, the
// resumed segment's communication equals the §V closed form over the
// remaining iterations, and torn epochs — manufactured by fault points
// or direct corruption — are detected and skipped, never loaded.

import (
	"context"
	"errors"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

var ckptProcs = []int{1, 2, 3, 5, 8}

// ckptSpec builds the canonical checkpointed kernel-3 spec of this
// suite: 10 iterations, an epoch every 3 (boundaries at 3, 6 and 9).
func ckptSpec(mode dist.ExecMode, p int, fs vfs.FS) dist.Spec {
	return dist.Spec{
		Config: dist.Config{Mode: mode}, Op: dist.OpRun, Procs: p,
		PageRank:   pagerank.Options{Seed: 5, Iterations: 10},
		Checkpoint: dist.CheckpointSpec{FS: fs, Every: 3, Resume: true},
	}
}

// TestCheckpointKillAndResumeBitForBit is the tentpole property: for
// p ∈ {1,2,3,5,8} × every checkpoint epoch e, a run
// killed at e and restarted produces bit-for-bit the uninterrupted
// ranks, and the resumed segment's measured wire bytes equal
// PredictedCommBytes over the remaining iterations.
func TestCheckpointKillAndResumeBitForBit(t *testing.T) {
	l, n := executeGraph(t, 7)
	// Reduction order depends on p, so the uninterrupted reference is
	// per processor count (p's differ at ~1e-12).
	baselines := map[int][]float64{}
	for _, p := range ckptProcs {
		res, err := dist.Execute(context.Background(), dist.Spec{
			Op: dist.OpRun, Edges: l, N: n, Procs: p,
			PageRank: pagerank.Options{Seed: 5, Iterations: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		baselines[p] = res.Run.Rank
	}
	for _, mode := range execModes {
		for _, p := range ckptProcs {
			for _, epoch := range []int{3, 6, 9} {
				fs := vfs.NewMem()
				spec := ckptSpec(mode, p, fs)
				spec.Edges, spec.N = l, n
				spec.Fault = &dist.FaultPlan{KillRank: p - 1, AtIteration: epoch}
				_, err := dist.Execute(context.Background(), spec)
				if !errors.Is(err, dist.ErrFaultInjected) {
					t.Fatalf("mode=%v p=%d epoch=%d: kill err = %v", mode, p, epoch, err)
				}

				resumed := ckptSpec(mode, p, fs)
				resumed.Edges, resumed.N = l, n
				out, err := dist.Execute(context.Background(), resumed)
				if err != nil {
					t.Fatalf("mode=%v p=%d epoch=%d: resume: %v", mode, p, epoch, err)
				}
				res := out.Run
				sameRank(t, "kill-and-resume", baselines[p], res.Rank)
				if res.Iterations != 10 {
					t.Fatalf("mode=%v p=%d epoch=%d: resumed to %d iterations", mode, p, epoch, res.Iterations)
				}
				st := res.Checkpoint
				if st == nil || !st.Resumed || st.ResumedFrom != int64(epoch) {
					t.Fatalf("mode=%v p=%d epoch=%d: stats %+v", mode, p, epoch, st)
				}
				remaining := 10 - epoch
				measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
				if want := dist.PredictedCommBytes(n, p, remaining, false); measured != want {
					t.Fatalf("mode=%v p=%d epoch=%d: resumed segment %d wire bytes, predicted %d",
						mode, p, epoch, measured, want)
				}
			}
		}
	}
}

// TestCheckpointDoesNotPerturbResultOrComm pins that turning
// checkpointing on changes neither a single rank bit nor a single
// CommStats field — epoch I/O is storage and control plane only.
func TestCheckpointDoesNotPerturbResultOrComm(t *testing.T) {
	l, n := executeGraph(t, 7)
	for _, mode := range execModes {
		for _, p := range []int{1, 3, 5} {
			plain, err := dist.Execute(context.Background(), dist.Spec{
				Config: dist.Config{Mode: mode}, Op: dist.OpRun, Edges: l, N: n, Procs: p,
				PageRank: pagerank.Options{Seed: 5, Iterations: 10},
			})
			if err != nil {
				t.Fatal(err)
			}
			spec := ckptSpec(mode, p, vfs.NewMem())
			spec.Edges, spec.N = l, n
			ck, err := dist.Execute(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRank(t, "checkpointed run", plain.Run.Rank, ck.Run.Rank)
			if plain.Run.Comm != ck.Run.Comm {
				t.Fatalf("mode=%v p=%d: checkpointing perturbed CommStats: %+v vs %+v",
					mode, p, plain.Run.Comm, ck.Run.Comm)
			}
			if st := ck.Run.Checkpoint; st == nil || st.EpochsWritten != 3 || st.LastEpoch != 9 {
				t.Fatalf("mode=%v p=%d: stats %+v, want 3 epochs through 9", mode, p, ck.Run.Checkpoint)
			}
		}
	}
}

// TestCheckpointResumeAcrossProcsAndModes pins p-independence of the
// epoch format: a run killed on goroutine ranks at p=3 resumes on socket
// ranks at p=5, whose workers read the epoch through the coordinator.  Reduction order depends on p, so the exact reference for
// "6 iterations at p=3 then 4 at p=5" is built from the same public
// pieces: a 6-iteration p=3 run whose vector seeds a 4-iteration p=5
// run via InitialRank — the resumed execution must match it bit-for-bit.
func TestCheckpointResumeAcrossProcsAndModes(t *testing.T) {
	l, n := executeGraph(t, 7)
	seg1, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: 3,
		PageRank: pagerank.Options{Seed: 5, Iterations: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	seg2, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: 5,
		PageRank: pagerank.Options{Seed: 5, Iterations: 4, InitialRank: seg1.Run.Rank},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMem()
	kill := ckptSpec(dist.ExecGoroutine, 3, fs)
	kill.Edges, kill.N = l, n
	kill.Fault = &dist.FaultPlan{KillRank: 1, AtIteration: 6}
	if _, err := dist.Execute(context.Background(), kill); !errors.Is(err, dist.ErrFaultInjected) {
		t.Fatalf("kill err = %v", err)
	}
	resume := ckptSpec(dist.ExecSocket, 5, fs)
	resume.Edges, resume.N = l, n
	out, err := dist.Execute(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	sameRank(t, "cross-procs cross-mode resume", seg2.Run.Rank, out.Run.Rank)
	if st := out.Run.Checkpoint; st == nil || st.ResumedFrom != 6 {
		t.Fatalf("stats %+v", out.Run.Checkpoint)
	}
}

// TestCheckpointRunMatrixOp pins the OpRunMatrix path: kill-and-resume
// on a prebuilt matrix is bit-for-bit too.
func TestCheckpointRunMatrixOp(t *testing.T) {
	l, n := executeGraph(t, 7)
	built, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpBuildFiltered, Edges: l, N: n, Procs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := built.Build.Matrix
	opt := pagerank.Options{Seed: 5, Iterations: 10}
	baseline, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRunMatrix, Matrix: a, Procs: 3, PageRank: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range execModes {
		fs := vfs.NewMem()
		kill := dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpRunMatrix, Matrix: a, Procs: 3,
			PageRank:   opt,
			Checkpoint: dist.CheckpointSpec{FS: fs, Every: 4, Resume: true},
			Fault:      &dist.FaultPlan{KillRank: 2, AtIteration: 8},
		}
		if _, err := dist.Execute(context.Background(), kill); !errors.Is(err, dist.ErrFaultInjected) {
			t.Fatalf("mode=%v: kill err = %v", mode, err)
		}
		resume := kill
		resume.Fault = nil
		out, err := dist.Execute(context.Background(), resume)
		if err != nil {
			t.Fatal(err)
		}
		sameRank(t, "matrix-op resume", baseline.Run.Rank, out.Run.Rank)
		if out.Run.Checkpoint.ResumedFrom != 8 {
			t.Fatalf("mode=%v: resumed from %d, want 8", mode, out.Run.Checkpoint.ResumedFrom)
		}
	}
}

// TestCheckpointAlreadyCovered pins the degenerate resume: when the
// loaded epoch already covers the requested iterations, Execute returns
// the recovered vector without running (and without communicating).
func TestCheckpointAlreadyCovered(t *testing.T) {
	l, n := executeGraph(t, 7)
	fs := vfs.NewMem()
	spec := ckptSpec(dist.ExecGoroutine, 3, fs)
	spec.Edges, spec.N = l, n
	if _, err := dist.Execute(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	short := ckptSpec(dist.ExecGoroutine, 3, fs)
	short.Edges, short.N = l, n
	short.PageRank.Iterations = 9 // the stored epoch 9 covers this
	out, err := dist.Execute(context.Background(), short)
	if err != nil {
		t.Fatal(err)
	}
	if out.Run.Iterations != 9 {
		t.Fatalf("iterations %d, want the covered 9", out.Run.Iterations)
	}
	var zero dist.CommStats
	if out.Run.Comm != zero {
		t.Fatalf("covered resume communicated: %+v", out.Run.Comm)
	}
	// The epoch-9 vector is the 9-iteration prefix of the full run's
	// trajectory; spot-check it differs from the final (10-iteration)
	// vector but matches what the checkpoint stored.
	loaded, err := ckpt.Load(fs, "ckpt", 9)
	if err != nil {
		t.Fatal(err)
	}
	sameRank(t, "covered resume", loaded.Rank, out.Run.Rank)
}

// TestCheckpointTornEpochSkippedOnResume corrupts the newest committed
// epoch and resumes: the loader must fall back to the previous complete
// epoch, report it as torn, and the run must still land bit-for-bit.
func TestCheckpointTornEpochSkippedOnResume(t *testing.T) {
	l, n := executeGraph(t, 7)
	baseline, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: 2,
		PageRank: pagerank.Options{Seed: 5, Iterations: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range execModes {
		fs := vfs.NewMem()
		spec := ckptSpec(mode, 2, fs)
		spec.Edges, spec.N = l, n
		if _, err := dist.Execute(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		// Corrupt one chunk of the newest epoch (9), commit intact.
		name := ckpt.ChunkName("ckpt", 9, 1)
		r, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r)
		r.Close()
		b[len(b)/2] ^= 0x55
		w, _ := fs.Create(name)
		w.Write(b)
		w.Close()

		resume := ckptSpec(mode, 2, fs)
		resume.Edges, resume.N = l, n
		out, err := dist.Execute(context.Background(), resume)
		if err != nil {
			t.Fatal(err)
		}
		st := out.Run.Checkpoint
		if st.ResumedFrom != 6 || st.TornSkipped != 1 {
			t.Fatalf("stats %+v, want resume from 6 skipping 1 torn epoch", st)
		}
		sameRank(t, "torn-skip resume", baseline.Run.Rank, out.Run.Rank)
	}
}

// TestCheckpointFaultDuringWriteLeavesTornEpoch pins the
// DuringCheckpoint fault point: the epoch at the fault
// boundary has chunks but no commit, so the resume starts from the
// previous epoch and still reproduces the baseline bit-for-bit.
func TestCheckpointFaultDuringWriteLeavesTornEpoch(t *testing.T) {
	l, n := executeGraph(t, 7)
	baseline, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: 3,
		PageRank: pagerank.Options{Seed: 5, Iterations: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range execModes {
		fs := vfs.NewMem()
		spec := ckptSpec(mode, 3, fs)
		spec.Edges, spec.N = l, n
		spec.Fault = &dist.FaultPlan{KillRank: 0, AtIteration: 6, DuringCheckpoint: true}
		if _, err := dist.Execute(context.Background(), spec); !errors.Is(err, dist.ErrFaultInjected) {
			t.Fatalf("mode=%v: kill err = %v", mode, err)
		}
		// Epoch 6 must be uncommitted: chunks may exist, commit must not.
		if _, err := fs.Open(ckpt.CommitName("ckpt", 6)); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("mode=%v: epoch 6 commit exists after mid-checkpoint fault", mode)
		}
		resume := ckptSpec(mode, 3, fs)
		resume.Edges, resume.N = l, n
		out, err := dist.Execute(context.Background(), resume)
		if err != nil {
			t.Fatal(err)
		}
		if out.Run.Checkpoint.ResumedFrom != 3 {
			t.Fatalf("mode=%v: resumed from %d, want 3", mode, out.Run.Checkpoint.ResumedFrom)
		}
		sameRank(t, "post-torn-write resume", baseline.Run.Rank, out.Run.Rank)
	}
}

// TestCheckpointStorageFailureSurfaces drives the epoch writer into an
// injected storage failure: the run must fail with the injected error
// (no silent skip), and the prior complete epoch must remain loadable.
func TestCheckpointStorageFailureSurfaces(t *testing.T) {
	l, n := executeGraph(t, 7)
	for _, mode := range execModes {
		mem := vfs.NewMem()
		// Let epoch 3 land, then fail: budget for one epoch plus change.
		probe := vfs.NewMem()
		spec := ckptSpec(mode, 2, probe)
		spec.Edges, spec.N = l, n
		spec.PageRank.Iterations = 3
		if _, err := dist.Execute(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		faulty := vfs.NewFaulty(mem, probe.TotalBytes()+64)
		spec = ckptSpec(mode, 2, faulty)
		spec.Edges, spec.N = l, n
		_, err := dist.Execute(context.Background(), spec)
		if err == nil || !strings.Contains(err.Error(), vfs.ErrInjected.Error()) {
			t.Fatalf("mode=%v: checkpoint write failure not surfaced: %v", mode, err)
		}
		if l, lerr := ckpt.Latest(mem, "ckpt"); lerr != nil || l.Epoch != 3 {
			t.Fatalf("mode=%v: prior epoch lost after storage failure: %+v %v", mode, l, lerr)
		}
	}
}

// TestCheckpointSpecValidation pins the input contract of the new Spec
// surface.
func TestCheckpointSpecValidation(t *testing.T) {
	l, n := executeGraph(t, 6)
	fs := vfs.NewMem()
	base := dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: 2,
		PageRank: pagerank.Options{Seed: 5, Iterations: 10},
	}
	mutations := map[string]func(*dist.Spec){
		"kill-rank-out-of-range": func(s *dist.Spec) {
			s.Fault = &dist.FaultPlan{KillRank: 2, AtIteration: 1}
		},
		"kill-rank-negative": func(s *dist.Spec) {
			s.Fault = &dist.FaultPlan{KillRank: -1, AtIteration: 1}
		},
		"fault-iteration-zero": func(s *dist.Spec) {
			s.Fault = &dist.FaultPlan{AtIteration: 0}
		},
		"fault-beyond-run": func(s *dist.Spec) {
			s.Fault = &dist.FaultPlan{AtIteration: 11}
		},
		"during-checkpoint-without-fs": func(s *dist.Spec) {
			s.Fault = &dist.FaultPlan{AtIteration: 3, DuringCheckpoint: true}
		},
		"during-checkpoint-off-boundary": func(s *dist.Spec) {
			s.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 3}
			s.Fault = &dist.FaultPlan{AtIteration: 4, DuringCheckpoint: true}
		},
		"checkpoint-on-sort": func(s *dist.Spec) {
			s.Op = dist.OpSort
			s.Checkpoint = dist.CheckpointSpec{FS: fs}
		},
		"fault-on-sort": func(s *dist.Spec) {
			s.Op = dist.OpSort
			s.Fault = &dist.FaultPlan{AtIteration: 1}
		},
	}
	for _, name := range slices.Sorted(maps.Keys(mutations)) {
		mutate := mutations[name]
		t.Run(name, func(t *testing.T) {
			spec := base
			mutate(&spec)
			if _, err := dist.Execute(context.Background(), spec); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestCheckpointMismatchRejected pins that a checkpoint from a different
// problem (different n or damping) is rejected at resume, not loaded.
func TestCheckpointMismatchRejected(t *testing.T) {
	l, n := executeGraph(t, 6)
	fs := vfs.NewMem()
	spec := ckptSpec(dist.ExecGoroutine, 2, fs)
	spec.Edges, spec.N = l, n
	if _, err := dist.Execute(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	other := ckptSpec(dist.ExecGoroutine, 2, fs)
	other.Edges, other.N = l, n
	other.PageRank.Damping = 0.5
	if _, err := dist.Execute(context.Background(), other); err == nil {
		t.Fatal("damping mismatch accepted")
	}
}

// TestCheckpointKeepPrunesOldEpochs pins the retention knob: with
// Keep=2, only the newest two committed epochs survive a run.
func TestCheckpointKeepPrunesOldEpochs(t *testing.T) {
	l, n := executeGraph(t, 6)
	fs := vfs.NewMem()
	spec := ckptSpec(dist.ExecGoroutine, 3, fs)
	spec.Edges, spec.N = l, n
	spec.Checkpoint.Keep = 2
	if _, err := dist.Execute(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	eps, err := ckpt.Epochs(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[0] != 6 || eps[1] != 9 {
		t.Fatalf("retained epochs %v, want [6 9]", eps)
	}
}

package dist_test

// Chaos harness for the fault-injection plane (ISSUE 7): table-driven
// FaultPlan scenarios — first rank vs last rank, first iteration vs
// final iteration, fault during the checkpoint write itself — each
// asserting three things: the run dies with ErrFaultInjected, the
// teardown plane strands no goroutine, and a subsequent resume still
// reproduces the uninterrupted ranks bit-for-bit.  Run under -race in
// CI's chaos step.

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

func TestChaosFaultPlans(t *testing.T) {
	const procs, iters = 4, 10
	l, n := executeGraph(t, 7)
	baseline, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: procs,
		PageRank: pagerank.Options{Seed: 5, Iterations: iters},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		fault      dist.FaultPlan
		resumeFrom int64 // epoch the restart must pick up (0 = fresh start)
	}{
		{"rank0-first-iteration", dist.FaultPlan{KillRank: 0, AtIteration: 1}, 0},
		{"rank0-mid-run", dist.FaultPlan{KillRank: 0, AtIteration: 5}, 3},
		{"last-rank-mid-run", dist.FaultPlan{KillRank: procs - 1, AtIteration: 5}, 3},
		{"last-rank-final-iteration", dist.FaultPlan{KillRank: procs - 1, AtIteration: iters}, 9},
		{"rank0-during-checkpoint", dist.FaultPlan{KillRank: 0, AtIteration: 6, DuringCheckpoint: true}, 3},
		{"last-rank-during-checkpoint", dist.FaultPlan{KillRank: procs - 1, AtIteration: 9, DuringCheckpoint: true}, 6},
		{"mid-rank-at-epoch-boundary", dist.FaultPlan{KillRank: 2, AtIteration: 6}, 6},
	}
	for _, mode := range execModes {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				fs := vfs.NewMem()
				kill := ckptSpec(mode, procs, fs)
				kill.Edges, kill.N = l, n
				fault := tc.fault
				kill.Fault = &fault
				if _, err := dist.Execute(context.Background(), kill); !errors.Is(err, dist.ErrFaultInjected) {
					t.Fatalf("kill err = %v, want ErrFaultInjected", err)
				}
				// The teardown plane must unwind every rank goroutine
				// before Execute returns — no leak, even with the
				// victim dead mid-protocol.
				waitForGoroutines(t, base)

				resume := ckptSpec(mode, procs, fs)
				resume.Edges, resume.N = l, n
				out, err := dist.Execute(context.Background(), resume)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				sameRank(t, "chaos resume", baseline.Run.Rank, out.Run.Rank)
				st := out.Run.Checkpoint
				if st == nil {
					t.Fatal("resume reported no checkpoint stats")
				}
				if st.ResumedFrom != tc.resumeFrom {
					t.Fatalf("resumed from epoch %d, want %d", st.ResumedFrom, tc.resumeFrom)
				}
				if tc.resumeFrom == 0 && st.Resumed {
					t.Fatal("fresh start misreported as a resume")
				}
				waitForGoroutines(t, base)
			})
		}
	}
}

// TestChaosRepeatedKills drives one storage through a kill at every
// epoch boundary in sequence — crash, restart, crash again — and checks
// the final completed run still matches the uninterrupted trajectory.
func TestChaosRepeatedKills(t *testing.T) {
	const procs, iters = 3, 10
	l, n := executeGraph(t, 7)
	baseline, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: procs,
		PageRank: pagerank.Options{Seed: 5, Iterations: iters},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range execModes {
		fs := vfs.NewMem()
		for i, at := range []int{3, 6, 9} {
			kill := ckptSpec(mode, procs, fs)
			kill.Edges, kill.N = l, n
			kill.Fault = &dist.FaultPlan{KillRank: at % procs, AtIteration: at}
			if _, err := dist.Execute(context.Background(), kill); !errors.Is(err, dist.ErrFaultInjected) {
				t.Fatalf("%v kill %d: err = %v", mode, i, err)
			}
		}
		final := ckptSpec(mode, procs, fs)
		final.Edges, final.N = l, n
		out, err := dist.Execute(context.Background(), final)
		if err != nil {
			t.Fatal(err)
		}
		sameRank(t, "after repeated kills", baseline.Run.Rank, out.Run.Rank)
		if out.Run.Checkpoint.ResumedFrom != 9 {
			t.Fatalf("%v: final resume from %d, want 9", mode, out.Run.Checkpoint.ResumedFrom)
		}
	}
}

// TestChaosFaultWithoutCheckpoint pins the fault plane standing alone:
// no FS configured, the victim still dies cleanly with ErrFaultInjected
// and no goroutine leaks.
func TestChaosFaultWithoutCheckpoint(t *testing.T) {
	l, n := executeGraph(t, 7)
	for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
		base := runtime.NumGoroutine()
		_, err := dist.Execute(context.Background(), dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpRun, Edges: l, N: n, Procs: 4,
			PageRank: pagerank.Options{Seed: 5, Iterations: 10},
			Fault:    &dist.FaultPlan{KillRank: 1, AtIteration: 4},
		})
		if !errors.Is(err, dist.ErrFaultInjected) {
			t.Fatalf("mode=%v: err = %v", mode, err)
		}
		waitForGoroutines(t, base)
	}
}

// TestChaosFaultUnderCancellation races the injected fault against a
// context cancellation: whichever wins, Execute must return an error
// and unwind every rank.
func TestChaosFaultUnderCancellation(t *testing.T) {
	l, n := executeGraph(t, 7)
	for _, mode := range execModes {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		spec := ckptSpec(mode, 4, vfs.NewMem())
		spec.Edges, spec.N = l, n
		spec.Fault = &dist.FaultPlan{KillRank: 3, AtIteration: 6}
		spec.PageRank.Progress = func(it int) {
			if it == 4 {
				cancel()
			}
		}
		_, err := dist.Execute(ctx, spec)
		cancel()
		if err == nil {
			t.Fatalf("%v: no error from cancelled faulty run", mode)
		}
		waitForGoroutines(t, base)
	}
}

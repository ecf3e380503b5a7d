package dist_test

// Property suite for the resident socket fabric (DESIGN.md §13): a
// Session's workers serve job after job, keep the last run-matrix
// operand's row blocks between them, and every job stays
// observationally the one-shot run — rank bits, CommStats, wire bytes —
// while only the first job naming an operand pays for shipping it.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/sparse"
)

// builtMatrix is kernel 2's output for a small Kronecker graph.
func builtMatrix(t *testing.T, scale int) *sparse.CSR {
	t.Helper()
	l, n := executeGraph(t, scale)
	out, err := dist.Execute(context.Background(), dist.Spec{Op: dist.OpBuildFiltered, Edges: l, N: n, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return out.Build.Matrix
}

// runMatrix executes kernel 3 on a in the given mode, one-shot.
func runMatrix(t *testing.T, mode dist.ExecMode, a *sparse.CSR, p int, opt pagerank.Options) *dist.Result {
	t.Helper()
	out, err := dist.Execute(context.Background(), dist.Spec{
		Config: dist.Config{Mode: mode}, Op: dist.OpRunMatrix, Matrix: a, Procs: p, PageRank: opt,
	})
	if err != nil {
		t.Fatalf("p=%d mode=%v: %v", p, mode, err)
	}
	return out.Run
}

// k3CommBytes is the closed form's kernel-3 terms: the initial-vector
// broadcast plus the per-iteration all-reduces (PredictedCommBytes
// prices kernel 2 as well, which a run-matrix job does not perform).
func k3CommBytes(n, p, iters int, dangling bool) uint64 {
	if p <= 1 {
		return 0
	}
	return 8*uint64(n)*uint64(p-1) +
		dist.PredictedCommBytes(n, p, iters, dangling) - dist.PredictedCommBytes(n, p, 0, dangling)
}

// sessionJob runs one run-matrix job on sess and holds it to the
// reference: same bits, CommStats equal to the closed form and to the
// job's own wire bytes — deltas, whatever ran on the session before.
func sessionJob(t *testing.T, what string, sess *dist.Session, spec dist.Spec, want []float64) *dist.Result {
	t.Helper()
	spec.Mode, spec.Op, spec.Session = dist.ExecSocket, dist.OpRunMatrix, sess
	out, err := dist.Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	res := out.Run
	sameRank(t, what, want, res.Rank)
	iters := spec.PageRank.Iterations
	if got, pred := commTotal(res.Comm), k3CommBytes(spec.Matrix.N, spec.Procs, iters, spec.PageRank.Dangling); got != pred {
		t.Fatalf("%s: metered %d comm bytes, closed form predicts %d", what, got, pred)
	}
	if spec.Procs > 1 {
		checkWire(t, what, res.Wire, res.Comm)
	} else if res.Wire.DataBytes != 0 {
		t.Fatalf("%s: p=1 moved %d wire bytes", what, res.Wire.DataBytes)
	}
	if res.NNZ != spec.Matrix.NNZ() || res.Iterations != iters {
		t.Fatalf("%s: nnz/iters %d/%d, want %d/%d", what, res.NNZ, res.Iterations, spec.Matrix.NNZ(), iters)
	}
	return res
}

// blockBytes is a lower bound on what shipping a's row blocks costs.
func blockBytes(a *sparse.CSR) uint64 { return uint64(12*a.NNZ() + 8*a.N) }

// warmSetupLimit bounds a warm job's control-link set-up bytes on p
// workers: a job spec under 1 KiB each, no operand frames.
func warmSetupLimit(p int) uint64 { return uint64(p) << 10 }

func TestSocketSessionJobsMatchOneShot(t *testing.T) {
	a, b := builtMatrix(t, 6), builtMatrix(t, 7)
	opt := pagerank.Options{Seed: 3, Iterations: 8, Dangling: true}
	for _, p := range []int{1, 2, 3, 5} {
		want := runMatrix(t, dist.ExecSocket, a, p, opt)
		ref := runMatrix(t, dist.ExecGoroutine, a, p, opt)
		sameRank(t, "one-shot socket vs goroutine", ref.Rank, want.Rank)
		if ref.Comm != want.Comm {
			t.Fatalf("p=%d: one-shot socket CommStats %+v != goroutine %+v", p, want.Comm, ref.Comm)
		}
		if want.Wire.SetupBytes < blockBytes(a) {
			t.Fatalf("p=%d: one-shot run reports %d set-up bytes, below the operand's %d", p, want.Wire.SetupBytes, blockBytes(a))
		}

		sess, err := dist.OpenSession(context.Background(), p, dist.SocketSpec{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		specA := dist.Spec{Procs: p, Matrix: a, OperandID: "a#1", PageRank: opt}
		for k := 1; k <= 4; k++ {
			res := sessionJob(t, "job on a", sess, specA, want.Rank)
			if res.Comm != want.Comm {
				t.Fatalf("p=%d job %d: CommStats %+v, one-shot %+v", p, k, res.Comm, want.Comm)
			}
			switch setup := res.Wire.SetupBytes; {
			case k == 1 && setup < blockBytes(a):
				t.Fatalf("p=%d: first job shipped %d set-up bytes, below the operand's %d", p, setup, blockBytes(a))
			case k > 1 && setup >= warmSetupLimit(p):
				t.Fatalf("p=%d job %d: warm job shipped %d set-up bytes, want < %d (no operand frames)", p, k, setup, warmSetupLimit(p))
			}
		}

		// The hybrid worker count and a caller's initial vector are job
		// options: both work on the resident operand.
		hybrid := specA
		hybrid.Workers = 2
		if res := sessionJob(t, "hybrid job", sess, hybrid, want.Rank); res.Wire.SetupBytes >= warmSetupLimit(p) {
			t.Fatalf("p=%d: hybrid warm job shipped %d set-up bytes", p, res.Wire.SetupBytes)
		}
		seeded := specA
		seeded.PageRank.InitialRank = pagerank.InitVector(a.N, 99)
		wantSeeded := runMatrix(t, dist.ExecGoroutine, a, p, seeded.PageRank)
		if res := sessionJob(t, "seeded job", sess, seeded, wantSeeded.Rank); res.Wire.SetupBytes >= warmSetupLimit(p)+uint64(9*a.N) {
			t.Fatalf("p=%d: seeded warm job shipped %d set-up bytes, want the spec plus one %d-float vector", p, res.Wire.SetupBytes, a.N)
		}

		// A job naming another matrix replaces the resident operand —
		// and going back to the first one ships it again.
		wantB := runMatrix(t, dist.ExecGoroutine, b, p, opt)
		specB := dist.Spec{Procs: p, Matrix: b, OperandID: "b#1", PageRank: opt}
		if res := sessionJob(t, "job on b", sess, specB, wantB.Rank); res.Wire.SetupBytes < blockBytes(b) {
			t.Fatalf("p=%d: replacing the operand shipped only %d set-up bytes", p, res.Wire.SetupBytes)
		}
		if res := sessionJob(t, "second job on b", sess, specB, wantB.Rank); res.Wire.SetupBytes >= warmSetupLimit(p) {
			t.Fatalf("p=%d: second job on b shipped %d set-up bytes", p, res.Wire.SetupBytes)
		}
		if res := sessionJob(t, "back on a", sess, specA, want.Rank); res.Wire.SetupBytes < blockBytes(a) {
			t.Fatalf("p=%d: returning to a replaced operand shipped only %d set-up bytes", p, res.Wire.SetupBytes)
		}
		// Without an id nothing is assumed resident.
		anon := specA
		anon.OperandID = ""
		for k := 0; k < 2; k++ {
			if res := sessionJob(t, "anonymous job", sess, anon, want.Rank); res.Wire.SetupBytes < blockBytes(a) {
				t.Fatalf("p=%d: a job without an operand id shipped only %d set-up bytes", p, res.Wire.SetupBytes)
			}
		}
		if err := sess.Err(); err != nil {
			t.Fatalf("p=%d: session ended: %v", p, err)
		}
		sess.Close()
	}
}

// TestSocketSessionOtherOpsLeaveOperandResident runs the edge-list
// programs between two run-matrix jobs: every op shares the session's
// one worker loop, and none of them disturbs the resident operand.
func TestSocketSessionOtherOpsLeaveOperandResident(t *testing.T) {
	const p = 3
	l, n := executeGraph(t, 6)
	a := builtMatrix(t, 6)
	opt := pagerank.Options{Seed: 3, Iterations: 5}
	want := runMatrix(t, dist.ExecGoroutine, a, p, opt)
	sess, err := dist.OpenSession(context.Background(), p, dist.SocketSpec{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	spec := dist.Spec{Procs: p, Matrix: a, OperandID: "a#1", PageRank: opt}
	sessionJob(t, "first job", sess, spec, want.Rank)

	wantSort, err := dist.Execute(context.Background(), dist.Spec{Op: dist.OpSort, Edges: l, Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := dist.Execute(context.Background(), dist.Spec{
		Config: dist.Config{Mode: dist.ExecSocket}, Op: dist.OpSort, Edges: l, Procs: p, Session: sess,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sorted.Sort.Sorted.Equal(wantSort.Sort.Sorted) || sorted.Sort.Comm != wantSort.Sort.Comm {
		t.Fatal("sort on a session differs from the goroutine sort")
	}
	checkWire(t, "sort on a session", sorted.Sort.Wire, sorted.Sort.Comm)
	wantRun, err := dist.Execute(context.Background(), dist.Spec{Op: dist.OpRun, Edges: l, N: n, Procs: p, PageRank: opt})
	if err != nil {
		t.Fatal(err)
	}
	ran, err := dist.Execute(context.Background(), dist.Spec{
		Config: dist.Config{Mode: dist.ExecSocket}, Op: dist.OpRun, Edges: l, N: n, Procs: p, PageRank: opt, Session: sess,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRank(t, "run on a session", wantRun.Run.Rank, ran.Run.Rank)
	checkWire(t, "run on a session", ran.Run.Wire, ran.Run.Comm)

	if res := sessionJob(t, "job after other ops", sess, spec, want.Rank); res.Wire.SetupBytes >= warmSetupLimit(p) {
		t.Fatalf("operand was re-shipped (%d set-up bytes) after edge-list jobs", res.Wire.SetupBytes)
	}
	if _, err := dist.Execute(context.Background(), dist.Spec{
		Config: dist.Config{Mode: dist.ExecSocket}, Op: dist.OpRunMatrix, Matrix: a, Procs: p + 1, Session: sess,
	}); err == nil || !strings.Contains(err.Error(), "session of 3 workers") {
		t.Fatalf("job for the wrong rank count: err = %v", err)
	}
}

// TestSocketSessionIdlePastIOTimeout pins that an idle link is not a
// stalled one: two jobs further apart than the per-frame deadline, the
// second still warm.  (Before, the coordinator's reader would have
// timed out waiting for a frame nobody owed it.)
func TestSocketSessionIdlePastIOTimeout(t *testing.T) {
	const p = 2
	a := builtMatrix(t, 6)
	opt := pagerank.Options{Seed: 3, Iterations: 5}
	want := runMatrix(t, dist.ExecGoroutine, a, p, opt)
	sess, err := dist.OpenSession(context.Background(), p, dist.SocketSpec{IOTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	spec := dist.Spec{Procs: p, Matrix: a, OperandID: "a#1", PageRank: opt}
	sessionJob(t, "first job", sess, spec, want.Rank)
	time.Sleep(250 * time.Millisecond)
	if err := sess.Err(); err != nil {
		t.Fatalf("session ended while idle: %v", err)
	}
	if res := sessionJob(t, "job after idling", sess, spec, want.Rank); res.Wire.SetupBytes >= warmSetupLimit(p) {
		t.Fatalf("job after idling shipped %d set-up bytes, want a warm job", res.Wire.SetupBytes)
	}
}

// TestSocketSessionEndsOnFailure pins the failure rule: a failed job —
// here an injected rank fault — ends the session with its typed error,
// later jobs are refused, and Close leaves neither goroutines nor file
// descriptors behind.
func TestSocketSessionEndsOnFailure(t *testing.T) {
	const p = 3
	a := builtMatrix(t, 6)
	before, fdsBefore := waitForBaseline(t), countFDs(t)
	sess, err := dist.OpenSession(context.Background(), p, dist.SocketSpec{})
	if err != nil {
		t.Fatal(err)
	}
	spec := dist.Spec{
		Config: dist.Config{Mode: dist.ExecSocket}, Op: dist.OpRunMatrix, Session: sess,
		Procs: p, Matrix: a, OperandID: "a#1", PageRank: pagerank.Options{Seed: 3, Iterations: 8},
	}
	if _, err := dist.Execute(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	faulty := spec
	faulty.Fault = &dist.FaultPlan{KillRank: 1, AtIteration: 4}
	if _, err := dist.Execute(context.Background(), faulty); !errors.Is(err, dist.ErrFaultInjected) {
		t.Fatalf("faulted job: err = %v, want ErrFaultInjected", err)
	}
	if !errors.Is(sess.Err(), dist.ErrFaultInjected) {
		t.Fatalf("session error after a faulted job: %v", sess.Err())
	}
	if _, err := dist.Execute(context.Background(), spec); !errors.Is(err, dist.ErrFaultInjected) || !strings.Contains(err.Error(), "session is down") {
		t.Fatalf("job on an ended session: err = %v", err)
	}
	sess.Close()
	sess.Close() // idempotent
	waitForGoroutines(t, before)
	deadline := time.Now().Add(10 * time.Second)
	for countFDs(t) > fdsBefore {
		if time.Now().After(deadline) {
			t.Fatalf("file descriptors leaked: %d before, %d after", fdsBefore, countFDs(t))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

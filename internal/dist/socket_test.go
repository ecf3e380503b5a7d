package dist_test

// Property suite for the socket execution mode (DESIGN.md §13): p ranks
// as separate OS processes over unix-domain (and TCP loopback) sockets
// must be observationally identical to the simulation and the goroutine
// fabric — rank bits, CommStats, spill records — while the measured
// socket payload bytes equal the metered CommStats, checkpoint/restart
// works across the process boundary (genuine worker death included),
// and an aborted run leaks neither goroutines nor file descriptors.
//
// Every socket Execute in this file self-spawns its workers by
// re-execing this very test binary: the dist package's init hook turns
// a process carrying the join environment into a rank worker before the
// test driver starts.

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/fabric"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

// socketSpec is a Spec with the socket mode selected and self-spawned
// unix-domain workers — SocketSpec's zero value.
func socketSpec(op dist.Op, p int) dist.Spec {
	return dist.Spec{Config: dist.Config{Mode: dist.ExecSocket}, Op: op, Procs: p}
}

// commTotal is a CommStats' wire-byte total: the quantity the measured
// socket data plane must reproduce.
func commTotal(st dist.CommStats) uint64 {
	return st.AllToAllBytes + st.AllReduceBytes + st.BroadcastBytes
}

// checkWire pins the metering identity on a finished socket run: the
// bytes measured on the wire (write side, summed over workers) equal
// the metered CommStats exactly.
func checkWire(t *testing.T, what string, wire *dist.WireStats, st dist.CommStats) {
	t.Helper()
	if wire == nil {
		t.Fatalf("%s: socket run reported no wire stats", what)
	}
	if wire.DataBytes != commTotal(st) {
		t.Fatalf("%s: measured %d wire data bytes, metered %d", what, wire.DataBytes, commTotal(st))
	}
	if commTotal(st) > 0 && wire.Frames == 0 {
		t.Fatalf("%s: %d metered bytes but zero frames on the wire", what, commTotal(st))
	}
}

// TestSocketRunMatchesOtherModes is the tentpole property for kernel
// 2+3: for every p the socket pipeline equals the simulation and the
// goroutine fabric bit for bit — ranks, CommStats, iteration and NNZ
// counts — and the measured socket bytes equal the metered bytes and
// the closed form.
func TestSocketRunMatchesOtherModes(t *testing.T) {
	l, n := executeGraph(t, 6)
	opt := pagerank.Options{Seed: 3, Iterations: 8, Dangling: true}
	for _, p := range procCounts {
		var ref [2]*dist.Result
		for i, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
			out, err := dist.Execute(context.Background(), dist.Spec{
				Config: dist.Config{Mode: mode}, Op: dist.OpRun,
				Edges: l, N: n, Procs: p, PageRank: opt,
			})
			if err != nil {
				t.Fatalf("p=%d mode=%v: %v", p, mode, err)
			}
			ref[i] = out.Run
		}
		spec := socketSpec(dist.OpRun, p)
		spec.Edges, spec.N, spec.PageRank = l, n, opt
		out, err := dist.Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("p=%d socket: %v", p, err)
		}
		res := out.Run
		for i, mode := range []string{"sim", "goroutine"} {
			sameRank(t, "socket vs "+mode, ref[i].Rank, res.Rank)
			if res.Comm != ref[i].Comm {
				t.Fatalf("p=%d: socket CommStats %+v != %s %+v", p, res.Comm, mode, ref[i].Comm)
			}
			if res.Iterations != ref[i].Iterations || res.NNZ != ref[i].NNZ {
				t.Fatalf("p=%d: socket iters/nnz %d/%d != %s %d/%d",
					p, res.Iterations, res.NNZ, mode, ref[i].Iterations, ref[i].NNZ)
			}
		}
		checkWire(t, "run", res.Wire, res.Comm)
		// The wire bytes minus the data-dependent kernel-2 edge routing
		// are exactly the §V closed form — PredictedCommBytes measured on
		// an actual network.
		collectives := res.Wire.DataBytes - res.Comm.AllToAllBytes
		if want := dist.PredictedCommBytes(n, p, res.Iterations, true); collectives != want {
			t.Fatalf("p=%d: %d collective wire bytes, closed form predicts %d", p, collectives, want)
		}
		if p > 1 && len(res.RankSeconds) != p {
			t.Fatalf("p=%d: RankSeconds %v", p, res.RankSeconds)
		}
	}
}

// TestSocketSortMatchesOtherModes pins kernel 1: sorted bits and
// CommStats equal across all three modes for every p, measured bytes
// equal metered bytes.
func TestSocketSortMatchesOtherModes(t *testing.T) {
	l, _ := executeGraph(t, 6)
	for _, p := range procCounts {
		want, err := dist.Execute(context.Background(), dist.Spec{
			Op: dist.OpSort, Edges: l, Procs: p,
		})
		if err != nil {
			t.Fatalf("p=%d sim: %v", p, err)
		}
		spec := socketSpec(dist.OpSort, p)
		spec.Edges = l
		out, err := dist.Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("p=%d socket: %v", p, err)
		}
		if !out.Sort.Sorted.Equal(want.Sort.Sorted) {
			t.Fatalf("p=%d: socket sort differs from the simulation", p)
		}
		if out.Sort.Comm != want.Sort.Comm {
			t.Fatalf("p=%d: socket sort CommStats %+v != sim %+v", p, out.Sort.Comm, want.Sort.Comm)
		}
		if p > 1 {
			checkWire(t, "sort", out.Sort.Wire, out.Sort.Comm)
		}
	}
}

// TestSocketBuildFilteredMatchesOtherModes pins kernel 2 alone: the
// assembled global matrix, mass, NNZ and CommStats equal the other
// modes' bit for bit.
func TestSocketBuildFilteredMatchesOtherModes(t *testing.T) {
	l, n := executeGraph(t, 6)
	for _, p := range procCounts {
		want, err := dist.Execute(context.Background(), dist.Spec{
			Op: dist.OpBuildFiltered, Edges: l, N: n, Procs: p,
		})
		if err != nil {
			t.Fatalf("p=%d sim: %v", p, err)
		}
		spec := socketSpec(dist.OpBuildFiltered, p)
		spec.Edges, spec.N = l, n
		out, err := dist.Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("p=%d socket: %v", p, err)
		}
		sameMatrix(t, "socket build", want.Build.Matrix, out.Build.Matrix)
		if out.Build.Mass != want.Build.Mass || out.Build.NNZ != want.Build.NNZ {
			t.Fatalf("p=%d: socket mass/nnz %v/%d != sim %v/%d",
				p, out.Build.Mass, out.Build.NNZ, want.Build.Mass, want.Build.NNZ)
		}
		if out.Build.Comm != want.Build.Comm {
			t.Fatalf("p=%d: socket build CommStats %+v != sim %+v", p, out.Build.Comm, want.Build.Comm)
		}
		checkWire(t, "build", out.Build.Wire, out.Build.Comm)
	}
}

// TestSocketSortExternalMatchesOtherModes pins the out-of-core kernel 1:
// sorted bits, CommStats, per-rank run counts and summed spill traffic
// equal the other modes', even though each socket worker spills to its
// own private store.
func TestSocketSortExternalMatchesOtherModes(t *testing.T) {
	l, _ := executeGraph(t, 6)
	ext := dist.ExtSortConfig{RunEdges: 64}
	for _, p := range []int{1, 3, 5} {
		want, err := dist.Execute(context.Background(), dist.Spec{
			Op: dist.OpSortExternal, Edges: l, Procs: p, Ext: ext,
		})
		if err != nil {
			t.Fatalf("p=%d sim: %v", p, err)
		}
		spec := socketSpec(dist.OpSortExternal, p)
		spec.Edges, spec.Ext = l, ext
		out, err := dist.Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("p=%d socket: %v", p, err)
		}
		if !out.ExtSort.Sorted.Equal(want.ExtSort.Sorted) {
			t.Fatalf("p=%d: socket external sort differs from the simulation", p)
		}
		if out.ExtSort.Comm != want.ExtSort.Comm {
			t.Fatalf("p=%d: CommStats %+v != sim %+v", p, out.ExtSort.Comm, want.ExtSort.Comm)
		}
		for r := 0; r < p; r++ {
			if out.ExtSort.RunsPerRank[r] != want.ExtSort.RunsPerRank[r] {
				t.Fatalf("p=%d rank %d: %d runs, sim %d", p, r, out.ExtSort.RunsPerRank[r], want.ExtSort.RunsPerRank[r])
			}
		}
		if out.ExtSort.Spill != want.ExtSort.Spill {
			t.Fatalf("p=%d: socket spill %+v != sim %+v", p, out.ExtSort.Spill, want.ExtSort.Spill)
		}
		if out.ExtSort.SpillCodec != want.ExtSort.SpillCodec {
			t.Fatalf("p=%d: spill codec %q != %q", p, out.ExtSort.SpillCodec, want.ExtSort.SpillCodec)
		}
		checkWire(t, "ext sort", out.ExtSort.Wire, out.ExtSort.Comm)
	}
}

// TestSocketTCPLoopback smokes the TCP address family end to end: the
// same run over 127.0.0.1 must equal the unix-domain (and therefore
// every other) execution exactly.
func TestSocketTCPLoopback(t *testing.T) {
	l, n := executeGraph(t, 6)
	opt := pagerank.Options{Seed: 3, Iterations: 5}
	want, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: 3, PageRank: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	var listened string
	spec := socketSpec(dist.OpRun, 3)
	spec.Edges, spec.N, spec.PageRank = l, n, opt
	spec.Socket = dist.SocketSpec{
		Network:  "tcp",
		OnListen: func(network, addr string) { listened = network + "://" + addr },
	}
	out, err := dist.Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sameRank(t, "tcp socket run", want.Run.Rank, out.Run.Rank)
	if out.Run.Comm != want.Run.Comm {
		t.Fatalf("tcp CommStats %+v != sim %+v", out.Run.Comm, want.Run.Comm)
	}
	checkWire(t, "tcp run", out.Run.Wire, out.Run.Comm)
	if !strings.HasPrefix(listened, "tcp://127.0.0.1:") {
		t.Fatalf("OnListen reported %q, want a tcp loopback address", listened)
	}
}

// TestSocketCheckpointResume drives the §10 kill-and-resume property
// over the socket transport: the workers' chunk and commit writes are
// relayed to the coordinator's storage, a fault at an epoch leaves a
// resumable state, and the resumed run's final ranks are bit-for-bit
// the uninterrupted run's.  The torn-epoch case (DuringCheckpoint) must
// resume from the previous epoch.
func TestSocketCheckpointResume(t *testing.T) {
	l, n := executeGraph(t, 6)
	for _, p := range []int{1, 2, 5} {
		baseline, err := dist.Execute(context.Background(), dist.Spec{
			Op: dist.OpRun, Edges: l, N: n, Procs: p,
			PageRank: pagerank.Options{Seed: 5, Iterations: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, torn := range []bool{false, true} {
			fs := vfs.NewMem()
			spec := socketSpec(dist.OpRun, p)
			spec.Edges, spec.N = l, n
			spec.PageRank = pagerank.Options{Seed: 5, Iterations: 10}
			spec.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 3, Resume: true}
			spec.Fault = &dist.FaultPlan{KillRank: p - 1, AtIteration: 6, DuringCheckpoint: torn}
			_, err := dist.Execute(context.Background(), spec)
			if !errors.Is(err, dist.ErrFaultInjected) {
				t.Fatalf("p=%d torn=%v: kill err = %v", p, torn, err)
			}

			resumed := socketSpec(dist.OpRun, p)
			resumed.Edges, resumed.N = l, n
			resumed.PageRank = pagerank.Options{Seed: 5, Iterations: 10}
			resumed.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 3, Resume: true}
			out, err := dist.Execute(context.Background(), resumed)
			if err != nil {
				t.Fatalf("p=%d torn=%v: resume: %v", p, torn, err)
			}
			res := out.Run
			sameRank(t, "socket kill-and-resume", baseline.Run.Rank, res.Rank)
			st := res.Checkpoint
			wantFrom := int64(6)
			if torn {
				wantFrom = 3 // epoch 6's commit never landed; the loader must skip it
			}
			if st == nil || !st.Resumed || st.ResumedFrom != wantFrom {
				t.Fatalf("p=%d torn=%v: stats %+v, want resume from %d", p, torn, st, wantFrom)
			}
			measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
			if want := dist.PredictedCommBytes(n, p, 10-int(wantFrom), false); measured != want {
				t.Fatalf("p=%d torn=%v: resumed segment %d bytes, predicted %d", p, torn, measured, want)
			}
		}
	}
}

// TestSocketHardFaultWorkerDeath kills a worker process for real
// (os.Exit at the fault boundary) and checks the coordinator surfaces
// the death, tears the fabric down without leaking goroutines, and that
// the epochs committed before the death support a bit-for-bit resume.
func TestSocketHardFaultWorkerDeath(t *testing.T) {
	l, n := executeGraph(t, 6)
	const p = 3
	baseline, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: p,
		PageRank: pagerank.Options{Seed: 5, Iterations: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := waitForBaseline(t)
	fs := vfs.NewMem()
	spec := socketSpec(dist.OpRun, p)
	spec.Edges, spec.N = l, n
	spec.PageRank = pagerank.Options{Seed: 5, Iterations: 10}
	spec.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 3, Resume: true}
	spec.Fault = &dist.FaultPlan{KillRank: 1, AtIteration: 6, Hard: true}
	_, err = dist.Execute(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "worker died") {
		t.Fatalf("hard fault err = %v, want a worker-death error", err)
	}
	waitForGoroutines(t, before)

	resumed := socketSpec(dist.OpRun, p)
	resumed.Edges, resumed.N = l, n
	resumed.PageRank = pagerank.Options{Seed: 5, Iterations: 10}
	resumed.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 3, Resume: true}
	out, err := dist.Execute(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resume after hard death: %v", err)
	}
	sameRank(t, "resume after hard death", baseline.Run.Rank, out.Run.Rank)
	if st := out.Run.Checkpoint; st == nil || st.ResumedFrom != 6 {
		t.Fatalf("resume stats %+v, want resume from epoch 6", st)
	}
}

// TestSocketHardFaultRejectedOffSocket pins that Hard fault plans are
// rejected in the modes that have no process to kill.
func TestSocketHardFaultRejectedOffSocket(t *testing.T) {
	l, n := executeGraph(t, 6)
	for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
		_, err := dist.Execute(context.Background(), dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpRun, Edges: l, N: n, Procs: 2,
			PageRank: pagerank.Options{Seed: 5, Iterations: 10},
			Fault:    &dist.FaultPlan{KillRank: 0, AtIteration: 2, Hard: true},
		})
		if err == nil || !strings.Contains(err.Error(), "socket mode") {
			t.Fatalf("mode=%v: hard fault err = %v, want socket-mode rejection", mode, err)
		}
	}
}

// countFDs counts this process's open file descriptors (linux); skip on
// hosts without /proc.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// waitForBaseline settles transient goroutines from earlier tests and
// returns the current count as the leak baseline.
func waitForBaseline(t *testing.T) int {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestSocketCancelMidRunLeaksNothing cancels socket runs mid-kernel-3
// and checks the coordinator unwinds completely: every worker process
// reaped, every coordinator goroutine joined, every socket and listener
// closed (file-descriptor count restored).
func TestSocketCancelMidRunLeaksNothing(t *testing.T) {
	l, n := executeGraph(t, 6)
	before := waitForBaseline(t)
	fdsBefore := countFDs(t)
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		progressed := make(chan struct{}, 1)
		spec := socketSpec(dist.OpRun, 3)
		spec.Edges, spec.N = l, n
		spec.PageRank = pagerank.Options{Seed: 1, Iterations: 500_000, Progress: func(int) {
			select {
			case progressed <- struct{}{}:
			default:
			}
		}}
		done := make(chan error, 1)
		go func() { _, err := dist.Execute(ctx, spec); done <- err }()
		<-progressed // the run is mid-iteration on live worker processes
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: cancelled run returned %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: cancelled run did not return", round)
		}
	}
	waitForGoroutines(t, before)
	// FD release can trail the goroutine join by a beat; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := countFDs(t); n <= fdsBefore {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("file descriptors leaked: %d before, %d after", fdsBefore, countFDs(t))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSocketWorkerKilledMidRun kills a worker process externally (no
// cooperation from the fault plane) and checks the coordinator surfaces
// a worker-death error promptly and leaks nothing.
func TestSocketWorkerKilledMidRun(t *testing.T) {
	l, n := executeGraph(t, 6)
	before := waitForBaseline(t)
	spec := socketSpec(dist.OpRun, 3)
	spec.Edges, spec.N = l, n
	// A hard fault IS an uncooperative kill: os.Exit(3) without touching
	// the fabric or the control plane, indistinguishable from a kill -9
	// arriving between two instructions.
	spec.PageRank = pagerank.Options{Seed: 1, Iterations: 1000}
	spec.Fault = &dist.FaultPlan{KillRank: 2, AtIteration: 500, Hard: true}
	start := time.Now()
	_, err := dist.Execute(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "worker died") {
		t.Fatalf("err = %v, want a worker-death error", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("worker death took %v to surface", d)
	}
	waitForGoroutines(t, before)
}

// TestSocketJoinReportsWireVersion: a worker from another build is turned
// away at its first frame, and the handshake that then times out says so
// with the typed version error rather than only counting joins.
func TestSocketJoinReportsWireVersion(t *testing.T) {
	_, err := dist.OpenSession(context.Background(), 1, dist.SocketSpec{
		External: true, FabricID: "version-test", JoinTimeout: 2 * time.Second,
		OnListen: func(network, addr string) {
			go func() {
				conn, err := net.Dial(network, addr)
				if err != nil {
					return
				}
				defer conn.Close()
				join := fabric.AppendJoin(nil, fabric.Join{FabricID: "version-test", MeshNetwork: network, MeshAddr: "x"})
				frame := make([]byte, fabric.HeaderSize, fabric.HeaderSize+len(join))
				fabric.PutHeader(frame, fabric.Header{Type: fabric.FrameJoin, Len: uint64(len(join))})
				binary.LittleEndian.PutUint16(frame[4:6], fabric.Version-1)
				_, _ = conn.Write(append(frame, join...))
				_, _ = conn.Read(make([]byte, 1)) // hold the line until the coordinator drops it
			}()
		},
	})
	var ve *fabric.VersionError
	if !errors.As(err, &ve) || ve.Peer != fabric.Version-1 {
		t.Fatalf("OpenSession: %v, want a timed-out join naming wire version %d", err, fabric.Version-1)
	}
}

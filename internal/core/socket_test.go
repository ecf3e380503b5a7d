package core

// Lifecycle and failure tests of the Service's resident socket fabric
// (DESIGN.md §12, §13): warm DistMode "socket" runs reuse one set of
// worker processes; any failure discards them and the next run starts
// fresh; Close leaves nothing behind.  The workers are this test binary
// re-executed through the dist package's join environment.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func socketCfg(procs int) Config {
	return Config{Scale: 8, Seed: 7, Variant: "distgo", DistMode: "socket", Workers: procs, KeepRank: true}
}

// procState reports pid's parent and scheduler state from /proc
// ('Z' once it is dead but unreaped), ok false when it is gone.
func procState(pid int) (ppid int, state byte, ok bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, false
	}
	// "pid (comm) state ppid ..."; comm may itself contain ") ".
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 2 {
		return 0, 0, false
	}
	ppid, _ = strconv.Atoi(f[1])
	return ppid, f[0][0], true
}

// liveChildren lists this process's child processes that are still
// running — the leak counter for worker processes.
func liveChildren(t *testing.T) []int {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if ppid, state, ok := procState(pid); ok && ppid == os.Getpid() && state != 'Z' {
			pids = append(pids, pid)
		}
	}
	return pids
}

// eventually polls cond for up to ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: rank lengths %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: rank vectors differ at %d: %v vs %v", what, i, want[i], got[i])
		}
	}
}

// TestSocketServiceWarmRunsAndClose: five socket runs through one
// Service equal a cold RunOnce bit for bit, run on the same p worker
// processes throughout, and after Close no child process, goroutine,
// file descriptor or fabric temp directory remains.
func TestSocketServiceWarmRunsAndClose(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // the fabric's socket directories, workers' included
	const p = 2
	ctx := context.Background()
	cold, err := RunOnce(ctx, socketCfg(p))
	if err != nil {
		t.Fatal(err)
	}
	if kids := liveChildren(t); len(kids) != 0 {
		t.Fatalf("RunOnce left worker processes %v", kids)
	}
	goroutines, fds := runtime.NumGoroutine(), countFDs(t)

	svc := NewService()
	var workers []int
	for i := 0; i < 5; i++ {
		res, err := svc.Run(ctx, socketCfg(p))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		sameBits(t, fmt.Sprintf("run %d vs cold", i), cold.Rank, res.Rank)
		if i > 0 && (res.Cache.Matrix.Hits != 1 || res.Comm.AllToAllBytes != 0 || res.Comm.AllReduceCalls != 20) {
			t.Fatalf("run %d: cache %+v comm %+v, want a matrix hit and kernel 3's 20 all-reduces alone", i, *res.Cache, *res.Comm)
		}
		kids := liveChildren(t)
		if len(kids) != p {
			t.Fatalf("run %d: %d resident workers %v, want %d", i, len(kids), kids, p)
		}
		if i == 0 {
			workers = kids
		} else if fmt.Sprint(kids) != fmt.Sprint(workers) {
			t.Fatalf("run %d ran on workers %v, not the resident %v", i, kids, workers)
		}
	}
	svc.Close()
	if kids := liveChildren(t); len(kids) != 0 {
		t.Fatalf("Close left worker processes %v", kids)
	}
	eventually(t, "goroutines and descriptors are released", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutines && countFDs(t) <= fds
	})
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("temp entry %s survived Close", e.Name())
	}
}

// TestSocketServiceWorkerKilledBetweenRuns kills a resident worker
// while the fabric idles: the run after it succeeds, on fresh workers.
func TestSocketServiceWorkerKilledBetweenRuns(t *testing.T) {
	const p = 3
	ctx := context.Background()
	svc := NewService()
	defer svc.Close()
	first, err := svc.Run(ctx, socketCfg(p))
	if err != nil {
		t.Fatal(err)
	}
	old := liveChildren(t)
	if len(old) != p {
		t.Fatalf("resident workers %v, want %d", old, p)
	}
	victim, err := os.FindProcess(old[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Kill(); err != nil {
		t.Fatal(err)
	}
	// The coordinator notices the dead control link and hangs up on the
	// survivors; once they are gone too it has certainly noticed.
	eventually(t, "the fabric notices the death and unwinds the surviving workers", func() bool {
		return len(liveChildren(t)) == 0
	})
	res, err := svc.Run(ctx, socketCfg(p))
	if err != nil {
		t.Fatalf("run after a worker death: %v", err)
	}
	sameBits(t, "run after a worker death", first.Rank, res.Rank)
	fresh := liveChildren(t)
	if len(fresh) != p {
		t.Fatalf("fresh fabric has workers %v, want %d", fresh, p)
	}
	for _, pid := range fresh {
		for _, o := range old {
			if pid == o {
				t.Fatalf("worker %d survived the discarded fabric", pid)
			}
		}
	}
}

// TestSocketServiceFailuresDiscardTheFabric: a cancelled run and a
// fault-injected run fail with their typed errors as ever, each costs
// the resident fabric, the run after each succeeds, and a resume-keyed
// rerun of the faulted run lands on the uninterrupted bits.
func TestSocketServiceFailuresDiscardTheFabric(t *testing.T) {
	const p = 2
	svc := NewService()
	defer svc.Close()
	cfg := socketCfg(p)
	cfg.PageRank = PageRankOptions{Seed: 11, Iterations: 10}
	uninterrupted, err := svc.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resident := liveChildren(t)

	ctx, cancel := context.WithCancel(context.Background())
	long := cfg
	long.PageRank.Iterations = 1_000_000
	_, err = svc.Run(ctx, long, WithProgress(func(ev PipelineEvent) {
		if ev.Kind == EventPipelineIteration && ev.Iteration == 3 {
			cancel()
		}
	}))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
	if kids := liveChildren(t); len(kids) != 0 {
		t.Fatalf("cancelled run left workers %v (resident were %v)", kids, resident)
	}

	kill := cfg
	kill.Checkpoint.Every = 3
	kill.Fault = &FaultPlan{KillRank: 1, AtIteration: 8}
	if _, err := svc.Run(context.Background(), kill, WithResumeKey("job")); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("faulted run: err = %v, want ErrFaultInjected", err)
	}
	if kids := liveChildren(t); len(kids) != 0 {
		t.Fatalf("faulted run left workers %v", kids)
	}
	resume := cfg
	resume.Checkpoint.Every = 3
	res, err := svc.Run(context.Background(), resume, WithResumeKey("job"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil || res.Checkpoint.ResumedFrom != 6 {
		t.Fatalf("resume record %+v, want resumed from 6", res.Checkpoint)
	}
	sameBits(t, "resumed run", uninterrupted.Rank, res.Rank)
	if kids := liveChildren(t); len(kids) != p {
		t.Fatalf("after the resumed run: workers %v, want %d resident", kids, p)
	}
}

// TestSocketServiceConcurrentRuns: runs that want the one fabric take
// turns — all finish, bit-identical — and a run still waiting for it
// honours its context.
func TestSocketServiceConcurrentRuns(t *testing.T) {
	const p = 2
	svc := NewService(WithMaxConcurrent(3))
	defer svc.Close()
	want, err := svc.Run(context.Background(), socketCfg(p))
	if err != nil {
		t.Fatal(err)
	}

	// One long run holds the fabric...
	holding := make(chan struct{})
	release := make(chan struct{})
	long := socketCfg(p)
	long.PageRank.Iterations = 50
	longDone := make(chan error, 1)
	go func() {
		var once sync.Once
		_, err := svc.Run(context.Background(), long, WithProgress(func(ev PipelineEvent) {
			if ev.Kind == EventPipelineIteration {
				once.Do(func() { close(holding); <-release })
			}
		}))
		longDone <- err
	}()
	<-holding
	// ...a second waits for it and gives up with its context...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := svc.Run(ctx, socketCfg(p)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run waiting for the busy fabric: err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("waiting run took %v to honour its context", d)
	}
	// ...and two more wait it out.
	results := make(chan []float64, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := svc.Run(context.Background(), socketCfg(p))
			if err != nil {
				t.Error(err)
				results <- nil
				return
			}
			results <- res.Rank
		}()
	}
	close(release)
	if err := <-longDone; err != nil {
		t.Fatalf("long run: %v", err)
	}
	for i := 0; i < 2; i++ {
		if rank := <-results; rank != nil {
			sameBits(t, "concurrent run", want.Rank, rank)
		}
	}
	if kids := liveChildren(t); len(kids) != p {
		t.Fatalf("concurrent runs left workers %v, want the %d resident", kids, p)
	}
}

package pipeline

import (
	"context"
	"errors"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

// k2Matrix builds a filtered matrix through the csr variant for the tests.
func k2Matrix(t *testing.T, cfg Config) *sparse.CSR {
	t.Helper()
	cfg = cfg.withDefaults()
	v, err := Lookup("csr")
	if err != nil {
		t.Fatal(err)
	}
	run := &Run{Cfg: cfg, FS: cfg.FS}
	for _, step := range []func(*Run) error{v.Kernel0, v.Kernel1, v.Kernel2} {
		if err := step(run); err != nil {
			t.Fatal(err)
		}
	}
	return run.Matrix
}

func TestCheckpointRoundTrip(t *testing.T) {
	a := k2Matrix(t, Config{Scale: 7, EdgeFactor: 8, Seed: 6})
	partial, err := pagerank.Gather(a, pagerank.Options{Seed: 6, Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMem()
	cp := &Checkpoint{Matrix: a, Rank: partial.Rank, CompletedIterations: 8, Damping: 0.85}
	if err := Save(fs, "ck/run1", cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(fs, "ck/run1")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CompletedIterations != 8 || loaded.Damping != 0.85 {
		t.Errorf("metadata: %+v", loaded)
	}
	if loaded.Matrix.NNZ() != a.NNZ() {
		t.Error("matrix changed")
	}
	for i := range partial.Rank {
		if loaded.Rank[i] != partial.Rank[i] {
			t.Fatal("rank vector changed")
		}
	}
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	a := k2Matrix(t, Config{Scale: 7, EdgeFactor: 8, Seed: 9})
	// Uninterrupted 20 iterations.
	full, err := pagerank.Gather(a, pagerank.Options{Seed: 9, Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	// 8 iterations, checkpoint through storage, resume to 20.
	partial, err := pagerank.Gather(a, pagerank.Options{Seed: 9, Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMem()
	if err := Save(fs, "ck", &Checkpoint{Matrix: a, Rank: partial.Rank, CompletedIterations: 8, Damping: 0.85}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(fs, "ck")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(loaded, 20, pagerank.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Iterations != 20 {
		t.Errorf("resumed total iterations %d", resumed.Iterations)
	}
	for i := range full.Rank {
		if full.Rank[i] != resumed.Rank[i] {
			t.Fatalf("resume diverges at %d: %v vs %v", i, resumed.Rank[i], full.Rank[i])
		}
	}
}

func TestCheckpointResumeAlreadyComplete(t *testing.T) {
	a := k2Matrix(t, Config{Scale: 6, EdgeFactor: 4, Seed: 1})
	r := pagerank.InitVector(a.N, 1)
	cp := &Checkpoint{Matrix: a, Rank: r, CompletedIterations: 20, Damping: 0.85}
	res, err := Resume(cp, 20, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 20 || &res.Rank[0] != &r[0] {
		t.Error("already-complete resume should return the checkpoint state")
	}
}

func TestCheckpointResumeDampingMismatch(t *testing.T) {
	a := k2Matrix(t, Config{Scale: 6, EdgeFactor: 4, Seed: 2})
	cp := &Checkpoint{Matrix: a, Rank: pagerank.InitVector(a.N, 1), CompletedIterations: 5, Damping: 0.85}
	if _, err := Resume(cp, 20, pagerank.Options{Damping: 0.9}); err == nil {
		t.Error("damping mismatch accepted")
	}
}

func TestCheckpointSaveRejectsMalformed(t *testing.T) {
	fs := vfs.NewMem()
	if err := Save(fs, "bad", &Checkpoint{}); err == nil {
		t.Error("nil matrix accepted")
	}
	a := k2Matrix(t, Config{Scale: 6, EdgeFactor: 4, Seed: 3})
	if err := Save(fs, "bad", &Checkpoint{Matrix: a, Rank: []float64{1}}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCheckpointLoadDetectsCorruption(t *testing.T) {
	a := k2Matrix(t, Config{Scale: 6, EdgeFactor: 4, Seed: 4})
	fs := vfs.NewMem()
	cp := &Checkpoint{Matrix: a, Rank: pagerank.InitVector(a.N, 1), CompletedIterations: 3, Damping: 0.85}
	if err := Save(fs, "c", cp); err != nil {
		t.Fatal(err)
	}
	// Corrupt the state file.
	r, _ := fs.Open("c.state")
	data := make([]byte, 0)
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		data = append(data, buf[:n]...)
		if err != nil {
			break
		}
	}
	r.Close()
	data[len(data)/2] ^= 0xFF
	w, _ := fs.Create("c.state")
	w.Write(data)
	w.Close()
	if _, err := Load(fs, "c"); err == nil {
		t.Error("corrupted state accepted")
	}
	// Missing files.
	if _, err := Load(fs, "absent"); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

func TestCheckpointResumeFromRandomMidpoints(t *testing.T) {
	// Property: for any split k, run(k) + resume(20-k) == run(20).
	a := k2Matrix(t, Config{Scale: 6, EdgeFactor: 8, Seed: 12})
	full, err := pagerank.Gather(a, pagerank.Options{Seed: 12, Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	g := xrand.New(5)
	for trial := 0; trial < 5; trial++ {
		k := 1 + g.Intn(19)
		partial, err := pagerank.Gather(a, pagerank.Options{Seed: 12, Iterations: k})
		if err != nil {
			t.Fatal(err)
		}
		cp := &Checkpoint{Matrix: a, Rank: partial.Rank, CompletedIterations: k, Damping: 0.85}
		resumed, err := Resume(cp, 20, pagerank.Options{Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		for i := range full.Rank {
			if math.Abs(full.Rank[i]-resumed.Rank[i]) > 1e-15 {
				t.Fatalf("split at %d diverges at component %d", k, i)
			}
		}
	}
}

// TestCheckpointLoadRejectsTruncation cuts the state file at every
// region boundary and inside each region: Load must fail with an error
// naming the truncated section, never a bare unexpected-EOF and never a
// zero-filled vector silently accepted.
func TestCheckpointLoadRejectsTruncation(t *testing.T) {
	a := k2Matrix(t, Config{Scale: 6, EdgeFactor: 4, Seed: 4})
	fs := vfs.NewMem()
	cp := &Checkpoint{Matrix: a, Rank: pagerank.InitVector(a.N, 1), CompletedIterations: 3, Damping: 0.85}
	if err := Save(fs, "c", cp); err != nil {
		t.Fatal(err)
	}
	full := readAll(t, fs, "c.state")
	const header = 4 + 8 + 8 + 8
	cuts := map[string]int{
		"empty":            0,
		"mid-magic":        2,
		"mid-header":       header - 3,
		"header-only":      header,
		"mid-rank-vector":  header + len(cp.Rank)*4,
		"missing-checksum": len(full) - 4,
		"mid-checksum":     len(full) - 2,
	}
	for _, name := range slices.Sorted(maps.Keys(cuts)) {
		cut := cuts[name]
		t.Run(name, func(t *testing.T) {
			w, _ := fs.Create("c.state")
			w.Write(full[:cut])
			w.Close()
			_, err := Load(fs, "c")
			if err == nil {
				t.Fatal("truncated state accepted")
			}
			if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "magic") {
				t.Fatalf("undiagnostic error for cut at %d: %v", cut, err)
			}
		})
	}
	// Trailing garbage is torn in the other direction; reject it too.
	w, _ := fs.Create("c.state")
	w.Write(append(append([]byte{}, full...), 0))
	w.Close()
	if _, err := Load(fs, "c"); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing garbage: %v", err)
	}
}

func readAll(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointSaveAtomic pins the two-phase save: no temp files
// survive a successful Save, and a Save that dies mid-write — injected
// storage failure — leaves the previous checkpoint fully loadable.
func TestCheckpointSaveAtomic(t *testing.T) {
	a := k2Matrix(t, Config{Scale: 6, EdgeFactor: 4, Seed: 4})
	mem := vfs.NewMem()
	cp := &Checkpoint{Matrix: a, Rank: pagerank.InitVector(a.N, 1), CompletedIterations: 3, Damping: 0.85}
	if err := Save(mem, "c", cp); err != nil {
		t.Fatal(err)
	}
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("temp file %q survived Save", name)
		}
	}
	before := readAll(t, mem, "c.state")

	// A second Save with different content dies mid-write: budget covers
	// the matrix but runs out inside the state payload.
	cp2 := &Checkpoint{Matrix: a, Rank: pagerank.InitVector(a.N, 2), CompletedIterations: 7, Damping: 0.85}
	msize, _ := mem.Size("c.matrix")
	faulty := vfs.NewFaulty(mem, msize+64).PartialWrites()
	if err := Save(faulty, "c", cp2); err == nil {
		t.Fatal("failed save reported success")
	}
	if got := readAll(t, mem, "c.state"); string(got) != string(before) {
		t.Fatal("failed save clobbered the previous state file")
	}
	loaded, err := Load(mem, "c")
	if err != nil {
		t.Fatalf("previous checkpoint unloadable after failed save: %v", err)
	}
	if loaded.CompletedIterations != 3 {
		t.Fatalf("loaded iterations %d, want the previous save's 3", loaded.CompletedIterations)
	}
}

// TestPipelineCheckpointKillAndResume drives the full pipeline with the
// distributed goroutine variant, kills a rank mid-kernel-3, and reruns
// with Resume: the second run restarts from the last committed epoch,
// emits checkpoint events on the Progress stream, and lands bit-for-bit
// on the uninterrupted pipeline's rank vector.
func TestPipelineCheckpointKillAndResume(t *testing.T) {
	base := Config{Scale: 7, EdgeFactor: 8, Seed: 3, Variant: "distgo", KeepRank: true,
		PageRank: pagerank.Options{Seed: 3, Iterations: 10}}
	uninterrupted, err := ExecuteContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	ckfs := vfs.NewMem()
	kill := base
	kill.Checkpoint = dist.CheckpointSpec{FS: ckfs, Every: 3, Resume: true}
	kill.Fault = &dist.FaultPlan{KillRank: 2, AtIteration: 8}
	var killSaves []int
	kill.Progress = func(ev Event) {
		if ev.Kind == EventCheckpointSaved {
			killSaves = append(killSaves, ev.Iteration)
		}
	}
	if _, err := ExecuteContext(context.Background(), kill); !errors.Is(err, dist.ErrFaultInjected) {
		t.Fatalf("killed run: err = %v, want ErrFaultInjected", err)
	}
	if len(killSaves) != 2 || killSaves[0] != 3 || killSaves[1] != 6 {
		t.Fatalf("killed run committed epochs %v, want [3 6]", killSaves)
	}

	resume := base
	resume.Checkpoint = dist.CheckpointSpec{FS: ckfs, Every: 3, Resume: true}
	var restoredFrom, iterEvents []int
	resume.Progress = func(ev Event) {
		switch ev.Kind {
		case EventCheckpointRestored:
			restoredFrom = append(restoredFrom, ev.Iteration)
		case EventIteration:
			iterEvents = append(iterEvents, ev.Iteration)
		}
	}
	res, err := ExecuteContext(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	if len(restoredFrom) != 1 || restoredFrom[0] != 6 {
		t.Fatalf("restore events %v, want [6]", restoredFrom)
	}
	// The resumed segment's iteration events carry global counts.
	if len(iterEvents) != 4 || iterEvents[0] != 7 || iterEvents[3] != 10 {
		t.Fatalf("resumed iteration events %v, want [7 8 9 10]", iterEvents)
	}
	if res.Checkpoint == nil || !res.Checkpoint.Resumed || res.Checkpoint.ResumedFrom != 6 {
		t.Fatalf("result checkpoint record %+v", res.Checkpoint)
	}
	if res.RankIterations != 10 {
		t.Fatalf("resumed pipeline reports %d iterations", res.RankIterations)
	}
	for i := range uninterrupted.Rank {
		if uninterrupted.Rank[i] != res.Rank[i] {
			t.Fatalf("resumed pipeline diverges at component %d", i)
		}
	}
}

// TestPipelineCheckpointRejectsSerialVariant pins validation: the
// checkpoint/fault knobs belong to the variants with a distributed
// kernel 3.
func TestPipelineCheckpointRejectsSerialVariant(t *testing.T) {
	cfg := Config{Scale: 6, Variant: "csr", Checkpoint: dist.CheckpointSpec{FS: vfs.NewMem()}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("serial variant accepted a checkpoint spec")
	}
	cfg = Config{Scale: 6, Variant: "csr", Fault: &dist.FaultPlan{AtIteration: 1}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("serial variant accepted a fault plan")
	}
	for _, v := range []string{"dist", "distgo", "distext"} {
		cfg = Config{Scale: 6, Variant: v, Checkpoint: dist.CheckpointSpec{FS: vfs.NewMem()}}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("variant %s rejected a checkpoint spec: %v", v, err)
		}
	}
}

package pipeline

// The pipeline's one checkpoint format is the distributed kernel 3's
// epoch checkpoint (internal/ckpt, DESIGN.md §10): a Config.Checkpoint run
// writes it and a resuming run reads it.  These tests drive it through
// whole pipelines.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

// ckptCfg is a small dist pipeline of iters kernel-3 iterations on four
// ranks.
func ckptCfg(iters int) Config {
	return Config{Scale: 7, EdgeFactor: 8, Seed: 9, Variant: "dist", KeepRank: true,
		PageRank: pagerank.Options{Seed: 9, Iterations: iters}}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// killAfter runs cfg with an epoch every `every` iterations into fs and a
// rank failure at iteration k (after the epoch there, if any, commits).
func killAfter(t *testing.T, cfg Config, fs vfs.FS, every, k int) {
	t.Helper()
	cfg.Checkpoint = dist.CheckpointSpec{FS: fs, Every: every}
	cfg.Fault = &dist.FaultPlan{KillRank: 1, AtIteration: k}
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, dist.ErrFaultInjected) {
		t.Fatalf("killed run: err = %v, want ErrFaultInjected", err)
	}
}

// resumeFrom reruns cfg from fs's newest complete epoch.
func resumeFrom(cfg Config, fs vfs.FS, every int) (*Result, error) {
	cfg.Checkpoint = dist.CheckpointSpec{FS: fs, Every: every, Resume: true}
	return ExecuteContext(context.Background(), cfg)
}

// sameBits fails unless got is want bit for bit.
func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("%s: rank lengths %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: rank[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestCheckpointRoundTrip: the epoch a run commits holds that run's rank
// vector bit for bit, with its iteration count and damping.
func TestCheckpointRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	cfg := ckptCfg(8)
	cfg.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 4}
	res := mustRun(t, cfg)
	if res.Checkpoint == nil || res.Checkpoint.EpochsWritten != 2 || res.Checkpoint.LastEpoch != 8 {
		t.Fatalf("checkpoint record %+v, want epochs 4 and 8", res.Checkpoint)
	}
	loaded, err := ckpt.Latest(fs, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch != 8 || loaded.Damping != pagerank.DefaultDamping || loaded.Procs != 4 {
		t.Fatalf("loaded epoch %d damping %v procs %d", loaded.Epoch, loaded.Damping, loaded.Procs)
	}
	sameBits(t, "epoch 8", res.Rank, loaded.Rank)
}

// TestCheckpointResumeMatchesUninterrupted: killed at iteration 8 and
// resumed, the pipeline lands on the uninterrupted run's bits, with
// kernel 1 in memory and out of core.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	for _, runEdges := range []int{0, int(ckptCfg(20).M() / 8)} {
		cfg := ckptCfg(20)
		cfg.RunEdges = runEdges
		full := mustRun(t, cfg)
		fs := vfs.NewMem()
		killAfter(t, cfg, fs, 4, 8)
		res, err := resumeFrom(cfg, fs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpoint == nil || res.Checkpoint.ResumedFrom != 8 || res.RankIterations != 20 {
			t.Fatalf("runEdges %d: record %+v, %d iterations", runEdges, res.Checkpoint, res.RankIterations)
		}
		sameBits(t, "resumed", full.Rank, res.Rank)
	}
}

// TestCheckpointResumeAlreadyComplete: resuming a run whose newest epoch
// already covers the requested iterations returns that epoch and writes
// nothing more.
func TestCheckpointResumeAlreadyComplete(t *testing.T) {
	fs := vfs.NewMem()
	cfg := ckptCfg(8)
	cfg.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 4}
	first := mustRun(t, cfg)
	res, err := resumeFrom(ckptCfg(8), fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil || res.Checkpoint.ResumedFrom != 8 || res.Checkpoint.EpochsWritten != 0 || res.RankIterations != 8 {
		t.Fatalf("record %+v, %d iterations", res.Checkpoint, res.RankIterations)
	}
	sameBits(t, "already complete", first.Rank, res.Rank)
}

// TestCheckpointResumeDampingMismatch: epochs of one damping never seed a
// run of another.
func TestCheckpointResumeDampingMismatch(t *testing.T) {
	fs := vfs.NewMem()
	killAfter(t, ckptCfg(10), fs, 5, 5)
	cfg := ckptCfg(10)
	cfg.PageRank.Damping = 0.9
	if _, err := resumeFrom(cfg, fs, 5); err == nil || !strings.Contains(err.Error(), "damping") {
		t.Fatalf("damping mismatch: err = %v", err)
	}
}

// TestCheckpointSaveRejectsMalformed: a malformed fault plan fails the
// run before kernel 3 writes anything to checkpoint storage.
func TestCheckpointSaveRejectsMalformed(t *testing.T) {
	for name, f := range map[string]dist.FaultPlan{
		"iteration-zero":     {KillRank: 1},
		"beyond-run":         {KillRank: 1, AtIteration: 11},
		"rank-out-of-range":  {KillRank: 4, AtIteration: 3},
		"off-epoch-boundary": {KillRank: 1, AtIteration: 3, DuringCheckpoint: true},
	} {
		fs := vfs.NewMem()
		cfg := ckptCfg(10)
		cfg.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 5}
		cfg.Fault = &f
		if _, err := ExecuteContext(context.Background(), cfg); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if names, _ := fs.List(); len(names) != 0 {
			t.Fatalf("%s: rejected run wrote %v", name, names)
		}
	}
}

// TestCheckpointLoadDetectsCorruption: a flipped byte in the newest
// epoch tears it; resume falls back to the previous epoch and still lands
// on the uninterrupted bits.  An empty store is a fresh start.
func TestCheckpointLoadDetectsCorruption(t *testing.T) {
	full := mustRun(t, ckptCfg(12))
	fs := vfs.NewMem()
	killAfter(t, ckptCfg(12), fs, 4, 8)
	name := ckpt.ChunkName("ckpt", 8, 1)
	data := readAll(t, fs, name)
	data[len(data)/2] ^= 0xFF
	writeAll(t, fs, name, data)
	res, err := resumeFrom(ckptCfg(12), fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ck := res.Checkpoint; ck == nil || ck.ResumedFrom != 4 || ck.TornSkipped != 1 {
		t.Fatalf("record %+v, want resumed from 4 past one torn epoch", ck)
	}
	sameBits(t, "resumed past corruption", full.Rank, res.Rank)

	fresh, err := resumeFrom(ckptCfg(12), vfs.NewMem(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Checkpoint == nil || fresh.Checkpoint.Resumed {
		t.Fatalf("empty store resumed: %+v", fresh.Checkpoint)
	}
	sameBits(t, "fresh start", full.Rank, fresh.Rank)
}

// TestCheckpointResumeFromRandomMidpoints: for any kill point k, run(k) +
// resume(20-k) == run(20), bit for bit.
func TestCheckpointResumeFromRandomMidpoints(t *testing.T) {
	full := mustRun(t, ckptCfg(20))
	g := xrand.New(5)
	for trial := 0; trial < 5; trial++ {
		k := 1 + g.Intn(19)
		fs := vfs.NewMem()
		killAfter(t, ckptCfg(20), fs, k, k)
		res, err := resumeFrom(ckptCfg(20), fs, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpoint == nil || res.Checkpoint.ResumedFrom != int64(k) {
			t.Fatalf("split at %d: record %+v", k, res.Checkpoint)
		}
		sameBits(t, "random midpoint", full.Rank, res.Rank)
	}
}

// TestCheckpointLoadRejectsTruncation cuts the newest epoch's chunk at
// every region boundary and inside each region: loading it fails with an
// error naming the truncated section, and a resume skips the epoch rather
// than accept a zero-filled vector.
func TestCheckpointLoadRejectsTruncation(t *testing.T) {
	full := mustRun(t, ckptCfg(12))
	// killed returns a store holding epochs 4 and 8 of a killed run; a
	// resume writes newer epochs, so each cut gets its own.
	killed := func() vfs.FS {
		fs := vfs.NewMem()
		killAfter(t, ckptCfg(12), fs, 4, 8)
		return fs
	}
	fs := killed()
	name := ckpt.ChunkName("ckpt", 8, 1)
	whole := readAll(t, fs, name)
	c, err := ckpt.Decode(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	header := len(whole) - 4 - 8*len(c.Data)
	cuts := map[string]int{
		"empty":            0,
		"mid-magic":        2,
		"mid-header":       header - 3,
		"header-only":      header,
		"mid-rank-vector":  header + len(c.Data)*4,
		"missing-checksum": len(whole) - 4,
		"mid-checksum":     len(whole) - 2,
	}
	for _, cut := range slices.Sorted(maps.Keys(cuts)) {
		t.Run(cut, func(t *testing.T) {
			fs := killed()
			writeAll(t, fs, name, whole[:cuts[cut]])
			if _, err := ckpt.Load(fs, "ckpt", 8); err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("undiagnostic load of a chunk cut at %d: %v", cuts[cut], err)
			}
			res, err := resumeFrom(ckptCfg(12), fs, 4)
			if err != nil {
				t.Fatal(err)
			}
			if ck := res.Checkpoint; ck == nil || ck.ResumedFrom != 4 || ck.TornSkipped != 1 {
				t.Fatalf("record %+v, want resumed from 4 past one torn epoch", ck)
			}
			sameBits(t, "resumed past truncation", full.Rank, res.Rank)
		})
	}
	// Trailing garbage is torn in the other direction; reject it too.
	writeAll(t, fs, name, append(slices.Clone(whole), 0))
	if _, err := ckpt.Load(fs, "ckpt", 8); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing garbage: %v", err)
	}
}

// TestCheckpointSaveAtomic pins the two-phase epoch write: no temp file
// survives a successful run, and a run whose storage fails mid-write
// leaves the previous epoch loadable and unchanged.
func TestCheckpointSaveAtomic(t *testing.T) {
	mem := vfs.NewMem()
	cfg := ckptCfg(4)
	cfg.Checkpoint = dist.CheckpointSpec{FS: mem, Every: 4}
	first := mustRun(t, cfg)
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("temp file %q survived the run", name)
		}
	}

	// A second run of another vector over the same epoch numbers dies
	// inside its first chunk's payload.
	cfg = ckptCfg(8)
	cfg.PageRank.Seed = 10
	cfg.Checkpoint = dist.CheckpointSpec{FS: vfs.NewFaulty(mem, 100).PartialWrites(), Every: 4}
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("failed write: err = %v, want the injected storage failure", err)
	}
	loaded, err := ckpt.Latest(mem, "ckpt")
	if err != nil {
		t.Fatalf("previous epoch unloadable after a failed write: %v", err)
	}
	if loaded.Epoch != 4 || loaded.Torn != 0 {
		t.Fatalf("loaded epoch %d (%d torn), want the first run's 4", loaded.Epoch, loaded.Torn)
	}
	sameBits(t, "previous epoch", first.Rank, loaded.Rank)
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

func writeAll(t *testing.T, fs vfs.FS, name string, b []byte) {
	t.Helper()
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
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
// kernel 3, with kernel 1 in memory or out of core.
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
		cfg = smallCfg(v)
		cfg.Checkpoint = dist.CheckpointSpec{FS: vfs.NewMem()}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s rejected a checkpoint spec: %v", v, err)
		}
	}
}

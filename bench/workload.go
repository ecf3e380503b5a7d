package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

// workload is one set of inputs the benchmark runs.  All four are
// Kronecker graphs at edge factor 16 with the paper's kernel 3 (20
// iterations, c = 0.85); they differ in which layers do the work.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists, repeated in
	// BENCHMARK.json.
	Why     string
	Scale   int
	Variant string
	Format  string
	// Warm workloads run through one long-lived Service whose staged
	// cache set-up has filled; cold ones through core.RunOnce.
	Warm bool
	// DirFS puts the edge files in a real directory instead of vfs.Mem.
	DirFS bool
	// RunEdgesDiv, when set, bounds the out-of-core sorter's memory to
	// M/RunEdgesDiv edges, so that it spills RunEdgesDiv runs.
	RunEdgesDiv int
	// Procs, when set, runs kernel 3 on that many worker processes over
	// unix sockets.
	Procs int
}

// Scales are chosen so that a 15-second run makes at least 25
// repetitions, which is what it took for medians to repeat between
// processes on the shared 2-core host this was sized on: a cold
// scale-18 pipeline takes 3.6 s there and a scale-18 socket run 0.85 s
// (medians 12% apart over ten runs), against 0.5 s and 0.22 s at scale
// 16; an in-process warm run takes 0.3 s at scale 18.
var workloads = []workload{
	{
		Name: "cold-tsv-s16", Scale: 16, Variant: "csr", Format: "tsv",
		Why: "paper-faithful cold pipeline in memory: K0-K2 (generator, tsv codec, radix sort, CSR build, filter) own ~90% of run_s, K3 ~10%",
	},
	{
		Name: "cold-ext-packed-s16", Scale: 16, Variant: "extsort", Format: "packed", DirFS: true, RunEdgesDiv: 8,
		Why: "same kernels through the other path: external spill/merge sort, packed codec, real files; a tsv- or radix-only gain must not move it",
	},
	{
		Name: "warm-k3-s18", Scale: 18, Variant: "csr", Warm: true,
		Why: "staged cache hit, so K0-K2 layers do no work: serve + gather engine + SpMV only; cold-path changes must not move it",
	},
	{
		Name: "warm-k3-sock-p2-s16", Scale: 16, Variant: "distgo", Warm: true, Procs: 2,
		Why: "warm K3 on 2 worker processes over unix sockets: worker launch, matrix scatter and 20 all-reduces on a real wire dominate",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) n() int   { return 1 << uint(w.Scale) }
func (w workload) m() int64 { return 16 << uint(w.Scale) }

// session is a workload after set-up: everything a timed repetition
// needs, and the reference its result is checked against.
type session struct {
	w    workload
	seed uint64
	svc  *core.Service // warm workloads
	fs   vfs.FS        // DirFS workloads; nil lets each run make its own vfs.Mem
	dir  string        // the directory behind fs, removed by close

	refNNZ  int
	refRank []float64
	// rankHash is the hash of the workload's own rank vector, fixed by
	// the warm-up run once that vector was found within 1e-9 of the csr
	// reference; every later repetition must reproduce it bit for bit.
	rankHash uint64
	hashSet  bool
}

// rankTolerance is the repo's cross-variant agreement (prvalidate V5).
const rankTolerance = 1e-9

// setup prepares w for timing: a csr reference run (which, on a warm
// workload, is also the cold run that fills the Service's staged
// cache), then one untimed, checked warm-up of the workload's own run.
// tmp is the directory scratch files may go under.
func (w workload) setup(ctx context.Context, seed uint64, tmp string) (s *session, err error) {
	s = &session{w: w, seed: seed}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if w.DirFS {
		if s.dir, err = os.MkdirTemp(tmp, "edges-"); err != nil {
			return nil, err
		}
		if s.fs, err = core.NewDirFS(s.dir); err != nil {
			return nil, err
		}
	}
	refCfg := core.Config{Scale: w.Scale, Seed: seed, Variant: "csr", KeepRank: true}
	var ref *core.Result
	if w.Warm {
		s.svc = core.NewService()
		ref, err = s.svc.Run(ctx, refCfg)
	} else {
		ref, err = core.RunOnce(ctx, refCfg)
	}
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	s.refNNZ, s.refRank = ref.NNZ, ref.Rank
	res, err := s.run(ctx)
	if err == nil {
		err = s.check(res)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return s, nil
}

// config is the only thing the program under test receives.
func (s *session) config() core.Config {
	w := s.w
	cfg := core.Config{
		Scale: w.Scale, Seed: s.seed, Variant: w.Variant, Format: w.Format,
		FS: s.fs, KeepRank: true,
	}
	if w.RunEdgesDiv > 0 {
		cfg.RunEdges = int(w.m()) / w.RunEdgesDiv
	}
	if w.Procs > 0 {
		cfg.DistMode, cfg.Workers = "socket", w.Procs
	}
	return cfg
}

// run is the call a repetition times: one complete pipeline through a
// non-deprecated user entrypoint.
func (s *session) run(ctx context.Context) (*core.Result, error) {
	if s.w.Warm {
		return s.svc.Run(ctx, s.config())
	}
	return core.RunOnce(ctx, s.config())
}

// check is the correctness gate every repetition passes or counts as a
// failed op.
func (s *session) check(res *core.Result) error {
	w := s.w
	if res.NNZ != s.refNNZ {
		return fmt.Errorf("NNZ %d, reference %d", res.NNZ, s.refNNZ)
	}
	if w.Warm {
		if res.Cache == nil || res.Cache.Matrix.Hits != 1 {
			return fmt.Errorf("warm run missed the staged matrix cache: %+v", res.Cache)
		}
		if len(res.Kernels) != 1 || res.Kernels[0].Kernel != core.K3PageRank {
			return fmt.Errorf("warm run executed %d kernels, want kernel 3 only", len(res.Kernels))
		}
	} else if len(res.Kernels) != 4 {
		return fmt.Errorf("cold run executed %d kernels, want 4", len(res.Kernels))
	}
	if w.Procs > 0 {
		if res.Comm == nil {
			return fmt.Errorf("socket run reported no communication record")
		}
		if got, want := commBytes(*res.Comm), predictedK3CommBytes(w.n(), w.Procs); got != want {
			return fmt.Errorf("metered %d communication bytes, closed form predicts %d", got, want)
		}
	}
	return s.checkRank(res.Rank)
}

// checkRank holds a rank vector to the reference (first call) and to
// bit-for-bit repetition (every later call).
func (s *session) checkRank(rank []float64) error {
	if len(rank) != len(s.refRank) {
		return fmt.Errorf("rank vector has %d entries, reference %d", len(rank), len(s.refRank))
	}
	h := hashRank(rank)
	if s.hashSet {
		if h != s.rankHash {
			return fmt.Errorf("rank vector hash %#x differs from the warm-up's %#x: result is not bit-for-bit repeatable", h, s.rankHash)
		}
		return nil
	}
	for i, r := range rank {
		if d := math.Abs(r - s.refRank[i]); !(d <= rankTolerance) {
			return fmt.Errorf("rank[%d] = %v, csr reference %v (off by %g > %g)", i, r, s.refRank[i], d, rankTolerance)
		}
	}
	s.rankHash, s.hashSet = h, true
	return nil
}

// close releases the Service and removes the scratch directory.
func (s *session) close() {
	if s.svc != nil {
		s.svc.Close()
		s.svc = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// hashRank hashes the float bits of a rank vector.
func hashRank(rank []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rank {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
		h.Write(b[:])
	}
	return h.Sum64()
}

func commBytes(c dist.CommStats) uint64 {
	return c.AllToAllBytes + c.AllReduceBytes + c.BroadcastBytes
}

// predictedK3CommBytes is the closed form for kernel 3 alone on p
// ranks: the initial rank-vector broadcast plus the per-iteration
// all-reduces.  dist.PredictedCommBytes prices kernel 2 as well, so the
// per-iteration part is its difference between 20 and 0 iterations.
func predictedK3CommBytes(n, p int) uint64 {
	if p <= 1 {
		return 0
	}
	it := pagerank.DefaultIterations
	perRun := dist.PredictedCommBytes(n, p, it, false) - dist.PredictedCommBytes(n, p, 0, false)
	return 8*uint64(n)*uint64(p-1) + perRun
}

// rep is what one timed repetition yields.
type rep struct {
	wall    float64 // seconds of the run call
	kernels [4]*core.KernelResult
}

// timedRep garbage-collects outside the timed region, times one run
// and checks its result.
func (s *session) timedRep(ctx context.Context) (rep, error) {
	runtime.GC()
	t0 := time.Now()
	res, err := s.run(ctx)
	r := rep{wall: time.Since(t0).Seconds()}
	if err == nil {
		err = s.check(res)
	}
	if err != nil {
		return r, err
	}
	for i := range res.Kernels {
		k := &res.Kernels[i]
		r.kernels[k.Kernel] = k
	}
	return r, nil
}

// addKernelRates adds the repetition's per-kernel edges/second to got
// under kernelRates' names.
func (r rep) addKernelRates(got metricSet) {
	for k, kr := range r.kernels {
		if kr != nil {
			got.add(kernelRates[k].Name, kr.EdgesPerSecond)
		}
	}
}

// kernelSeconds is the time the program itself attributes to kernels.
func (r rep) kernelSeconds() float64 {
	var sum float64
	for _, k := range r.kernels {
		if k != nil {
			sum += k.Seconds
		}
	}
	return sum
}

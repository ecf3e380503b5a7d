// Command prbench runs the PageRank pipeline benchmark.
//
// Single run (all four kernels, in-memory storage):
//
//	prbench -scale 18 -variant csr
//
// Every variant (or a comma-separated list) in turn, each cold, with one
// table of per-kernel edges/second:
//
//	prbench -scale 16 -variant all
//
// Reproduce the paper's figures (edges/second vs. number of edges for every
// implementation variant, kernels 0-3):
//
//	prbench -sweep -minscale 16 -maxscale 20
//
// Distributed run with communication accounting — simulated (default),
// real goroutine ranks, or both cross-checked against each other:
//
//	prbench -scale 16 -procs 8
//	prbench -scale 16 -procs 8 -distmode goroutine
//	prbench -scale 16 -procs 8 -distmode both
//
// Out-of-core distributed kernel 1 (-runedges bounds each rank's run
// buffer; it composes with -distmode, and with -variant distext|extsort
// for pipeline runs):
//
//	prbench -scale 16 -procs 8 -runedges 65536
//	prbench -scale 16 -procs 8 -runedges 65536 -distmode both
//	prbench -scale 16 -variant distext -runedges 65536
//
// Wall-clock scaling of the goroutine-rank runtime across processor
// counts, with the hardware model's predicted speedup alongside;
// -rankworkers crosses in the hybrid intra-rank worker counts for a
// p×w table (results are bit-for-bit invariant in both axes):
//
//	prbench -scale 16 -procsweep 1,2,4,8
//	prbench -scale 16 -procsweep 1,2,4 -rankworkers 1,2,4
//
// Edge-file formats: -format selects the on-disk codec for the kernel
// files (tsv is the paper-faithful default), and -formatsweep tabulates
// kernel-1 edges/second per format — the Figure-7-style ablation showing
// the sort going hardware-bound once text parsing leaves the loop:
//
//	prbench -scale 16 -variant extsort -format bin
//	prbench -scale 16 -variant extsort -runedges 65536 -formatsweep
//
// Checkpoint/restart of the distributed kernel 3 (-checkpoint-every
// writes an epoch to storage every N iterations), with an optional
// injected rank failure: kill a rank mid-run, resume from the newest
// complete epoch, and cross-check the final ranks bit for bit against
// the uninterrupted baseline (DESIGN.md §10).  "RANK@ITER@ckpt" moves
// the kill between the chunk write and the commit, manufacturing the
// torn epoch the loader must skip:
//
//	prbench -scale 14 -variant distgo -checkpoint-every 3
//	prbench -scale 14 -variant distgo -checkpoint-every 3 -inject-fault 1@7
//	prbench -scale 14 -variant distgo -checkpoint-every 3 -inject-fault 1@6@ckpt
//
// Staged-artifact-cache ablation: -cachesweep runs every variant cold
// then warm against a fresh service and tabulates the wall-clock
// speedup next to the warm run's per-stage hit/miss counters and the
// cache's resident footprint; -cachebudget bounds the cache in bytes:
//
//	prbench -scale 16 -cachesweep
//	prbench -scale 16 -cachesweep -variant csr,dist -cachebudget 268435456
//
// With -distmode and -procs the sweep's dist variants run in that mode
// on that many ranks — how a warm socket run on resident workers is
// measured:
//
//	prbench -scale 16 -cachesweep -variant distgo -distmode socket -procs 2
//
// Machine-readable output for the perf trajectory (single pipeline runs
// and -cachesweep; schema documented in the README, archived as
// BENCH_*.json by CI):
//
//	prbench -scale 14 -variant distgo -rankworkers 4 -json
//	prbench -scale 16 -cachesweep -json
//
// Profiles of the measured run(s) from the shipped binary (plain pipeline
// runs only; `go tool pprof prbench cpu.prof`):
//
//	prbench -scale 16 -variant csr,extsort -cpuprofile cpu.prof -memprofile mem.prof
//
// Hardware-model predictions for the paper's platform:
//
//	prbench -scale 22 -predict
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/results"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

func main() {
	var (
		scale       = flag.Int("scale", 16, "Graph500 scale factor S (N = 2^S)")
		edgeFactor  = flag.Int("edgefactor", 16, "average edges per vertex k")
		seed        = flag.Uint64("seed", 1, "random seed")
		nfiles      = flag.Int("nfiles", 1, "number of edge files (the paper's free parameter)")
		variant     = flag.String("variant", "csr", "implementation variant; a comma-separated list or 'all' runs each in turn, cold, and tabulates per-kernel edges/s (-sweep and -cachesweep take lists too; -json, -formatsweep and -checkpoint-every take one variant)")
		generator   = flag.String("generator", "kronecker", "kernel-0 generator: kronecker, ppl, er")
		workers     = flag.Int("workers", 0, "worker goroutines for parallel variants (0 = GOMAXPROCS)")
		dir         = flag.String("dir", "", "storage directory (empty = in-memory)")
		iterations  = flag.Int("iterations", 20, "kernel-3 PageRank iterations")
		damping     = flag.Float64("damping", 0.85, "kernel-3 damping factor c")
		dangling    = flag.Bool("dangling", false, "apply the dangling-node correction in kernel 3")
		sortEnds    = flag.Bool("sortends", false, "kernel 1 sorts by (u,v) instead of u")
		kernels     = flag.String("kernels", "0123", "kernels to run, e.g. 01 or 23")
		sweep       = flag.Bool("sweep", false, "sweep scales and emit the paper's figures 4-7")
		minScale    = flag.Int("minscale", 16, "sweep: smallest scale")
		maxScale    = flag.Int("maxscale", 18, "sweep: largest scale")
		procs       = flag.Int("procs", 0, "run the distributed pipeline on this many processors (ranks)")
		runEdges    = flag.Int("runedges", 0, "out-of-core run-buffer size in edges (extsort/distext variants; with -procs runs the out-of-core distributed sort)")
		distMode    = flag.String("distmode", "", "distributed execution: sim, goroutine or socket (empty = variant default); with -procs also 'both' (sim vs goroutine) or 'all' (every mode) to cross-check")
		procSweep   = flag.String("procsweep", "", "comma-separated rank counts for a goroutine-mode wall-clock scaling table")
		rankWorkers = flag.String("rankworkers", "1", "hybrid intra-rank worker goroutines per rank; a comma list crosses with -procsweep into a p×w table")
		predict     = flag.Bool("predict", false, "print hardware-model predictions and exit")
		format      = flag.String("format", "", "edge-file format: tsv, naivetsv, bin, packed (default: variant's)")
		formatSweep = flag.Bool("formatsweep", false, "run the kernel-1 edge-file format ablation (K1 edges/s per format) and exit")
		ckptEvery   = flag.Int("checkpoint-every", 0, "checkpoint the distributed kernel 3 every N iterations and report the overhead against an uncheckpointed baseline (dist variants)")
		ckptDir     = flag.String("checkpoint-dir", "", "durable storage directory for -checkpoint-every epochs (empty = in-memory)")
		injectFault = flag.String("inject-fault", "", `kill a rank mid-kernel-3 and resume: "RANK@ITER" fires after ITER completed iterations, "RANK@ITER@ckpt" fires during the epoch write (requires -checkpoint-every)`)
		cacheSweep  = flag.Bool("cachesweep", false, "run each variant cold then warm against the staged artifact cache and tabulate the speedup, per-stage hit/miss counters and resident cache bytes")
		cacheBudget = flag.Int64("cachebudget", 0, "staged-cache byte budget (0 = the default entry-capped cache); applies to single runs and -cachesweep")
		output      = flag.String("output", "table", "output format: table, csv, markdown")
		jsonOut     = flag.Bool("json", false, "emit a machine-readable prbench/v3 JSON report (single pipeline runs and -cachesweep; schema in README)")
		ascii       = flag.Bool("ascii", true, "sweep: also draw ASCII log-log plots")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the measured pipeline run(s) to this file (plain single- and multi-variant runs, in-process modes only)")
		memProfile  = flag.String("memprofile", "", "write an allocation profile (pprof 'allocs') to this file after the measured run(s); same modes as -cpuprofile")
	)
	flag.Parse()

	// One long-lived Service backs every mode of the command: runs are
	// admitted through it, Ctrl-C cancels them mid-kernel through ctx,
	// and the sweeps share its generator cache so a graph is generated
	// once per sweep, not once per table cell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var svcOpts []core.ServiceOption
	if *cacheBudget > 0 {
		svcOpts = append(svcOpts, core.WithCacheBudget(*cacheBudget))
	}
	svc := core.NewService(svcOpts...)
	defer svc.Close()

	rw, err := parseIntList(*rankWorkers)
	if err != nil {
		fatal(fmt.Errorf("bad -rankworkers: %w", err))
	}
	if *jsonOut && (*predict || *procSweep != "" || *procs > 0 && !*cacheSweep) {
		fatal(fmt.Errorf("-json reports single pipeline runs; drop -predict/-procsweep/-procs"))
	}
	if *injectFault != "" && *ckptEvery <= 0 {
		fatal(fmt.Errorf("-inject-fault needs -checkpoint-every: without epochs there is nothing to resume from"))
	}
	if *ckptEvery > 0 && (*sweep || *formatSweep || *procSweep != "" || *procs > 0 || *predict || *jsonOut) {
		fatal(fmt.Errorf("-checkpoint-every reports single pipeline runs; drop -sweep/-formatsweep/-procsweep/-procs/-predict/-json"))
	}
	if *cpuProfile != "" || *memProfile != "" {
		// The profile brackets the plain pipeline run(s) at the end of
		// main; the other modes interleave set-up with what they measure,
		// and a socket run's ranks are other processes.
		if *predict || *cacheSweep || *formatSweep || *procSweep != "" || *procs > 0 || *sweep || *ckptEvery > 0 {
			fatal(fmt.Errorf("-cpuprofile/-memprofile profile plain pipeline runs; drop -predict/-cachesweep/-formatsweep/-procsweep/-procs/-sweep/-checkpoint-every"))
		}
		if *distMode == "socket" {
			fatal(fmt.Errorf("-cpuprofile/-memprofile see only this process, and -distmode socket runs the ranks in others; use sim or goroutine"))
		}
	}
	if *predict {
		printPredictions(*scale, *output)
		return
	}
	if *cacheSweep {
		if *sweep || *formatSweep || *procSweep != "" || *ckptEvery > 0 {
			fatal(fmt.Errorf("-cachesweep is its own mode; drop -sweep/-formatsweep/-procsweep/-checkpoint-every"))
		}
		ranks := *workers // the dist variants' rank count is Config.Workers
		if *procs > 0 {
			ranks = *procs
		}
		// A bare -cachesweep ablates every variant; an explicit -variant
		// narrows it.
		variants := core.Variants()
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "variant" {
				variants = variantList(*variant)
			}
		})
		if err := runCacheSweep(ctx, *scale, *edgeFactor, *seed, *nfiles, variants, *cacheBudget, ranks, *distMode, *iterations, *damping, *dangling, *output, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *formatSweep {
		if err := runFormatSweep(ctx, svc, *scale, *edgeFactor, *seed, *nfiles, *variant, *runEdges, *iterations, *damping, *dangling, *output); err != nil {
			fatal(err)
		}
		return
	}
	if *procSweep != "" {
		if err := runProcSweep(ctx, svc, *scale, *edgeFactor, *seed, *procSweep, rw, *iterations, *damping, *dangling, *output); err != nil {
			fatal(err)
		}
		return
	}
	if len(rw) != 1 {
		fatal(fmt.Errorf("-rankworkers accepts a list only with -procsweep"))
	}
	if *procs > 0 {
		if err := runDistributed(ctx, svc, *scale, *edgeFactor, *seed, *procs, rw[0], *iterations, *damping, *dangling, *distMode, *runEdges); err != nil {
			fatal(err)
		}
		return
	}
	if *distMode == "both" || *distMode == "all" {
		// "both"/"all" are the cross-check spellings of the direct -procs
		// runner; a pipeline run executes one variant in one mode.
		fatal(fmt.Errorf("-distmode %s requires -procs; use -distmode sim, goroutine or socket with -variant", *distMode))
	}
	if *sweep {
		if *jsonOut {
			fatal(fmt.Errorf("-json reports single pipeline runs; drop -sweep"))
		}
		if err := runSweep(ctx, *minScale, *maxScale, *edgeFactor, *seed, *variant, *output, *ascii); err != nil {
			fatal(err)
		}
		return
	}

	cfg := core.Config{
		Scale:           *scale,
		EdgeFactor:      *edgeFactor,
		Seed:            *seed,
		NFiles:          *nfiles,
		Variant:         *variant,
		Generator:       pipeline.GeneratorKind(*generator),
		Format:          *format,
		Workers:         *workers,
		RunEdges:        *runEdges,
		SortEndVertices: *sortEnds,
		DistMode:        *distMode,
		RankWorkers:     rw[0],
		PageRank: pagerank.Options{
			Iterations: *iterations,
			Damping:    *damping,
			Dangling:   *dangling,
		},
	}
	if *dir != "" {
		fsys, err := vfs.NewDir(*dir)
		if err != nil {
			fatal(err)
		}
		cfg.FS = fsys
	}
	variants := variantList(*variant)
	if len(variants) > 1 && (*jsonOut || *ckptEvery > 0) {
		fatal(fmt.Errorf("-json and -checkpoint-every report one variant's run; -variant %s names %d", *variant, len(variants)))
	}
	if *ckptEvery > 0 {
		if err := runCheckpointed(ctx, svc, cfg, *ckptEvery, *injectFault, *ckptDir); err != nil {
			fatal(err)
		}
		return
	}
	ks, err := parseKernels(*kernels)
	if err != nil {
		fatal(err)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	var res *core.Result
	if len(variants) > 1 {
		err = runVariants(ctx, cfg, variants, ks, *output)
	} else {
		res, err = svc.Run(ctx, cfg, core.WithKernels(ks...))
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fatal(err)
	}
	if res == nil {
		return // runVariants printed its own table
	}
	if *jsonOut {
		if err := printResultJSON(res, *cacheBudget); err != nil {
			fatal(err)
		}
		return
	}
	printResult(res, *output)
}

// startProfiles begins the CPU profile named by cpu, if any, and returns
// the function that ends it and then writes the allocation profile named
// by mem, if any.  Empty names make both steps no-ops.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // the profile is as of the last completed collection
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// variantList expands a -variant value: "all" (or nothing) is every
// registered variant, anything else a comma-separated list of names.
func variantList(v string) []string {
	if v == "all" || v == "" {
		return core.Variants()
	}
	return strings.Split(v, ",")
}

// runVariants is the plain run over several variants: each executes the
// same configuration in turn on a throwaway, cache-less Service — so every
// one is a cold run — and one table lists their per-kernel edges/second.
func runVariants(ctx context.Context, cfg core.Config, variants []string, ks []core.Kernel, output string) error {
	t := results.NewTable(
		fmt.Sprintf("PageRank pipeline: scale %d, N=%s, M=%s, each variant cold, edges/second",
			cfg.Scale, pipeline.HumanCount(cfg.N()), pipeline.HumanCount(cfg.M())),
		"variant", "K0 generate", "K1 sort", "K2 filter", "K3 pagerank", "seconds", "alloc B/edge")
	for _, v := range variants {
		cfg.Variant = v
		res, err := core.RunOnce(ctx, cfg, ks...)
		if err != nil {
			return fmt.Errorf("variant %s: %w", v, err)
		}
		row, total, alloc := []string{v}, 0.0, uint64(0)
		for _, k := range []core.Kernel{core.K0Generate, core.K1Sort, core.K2Filter, core.K3PageRank} {
			cell := "-"
			if kr := res.KernelResultFor(k); kr != nil {
				cell = fmt.Sprintf("%.4g", kr.EdgesPerSecond)
				total += kr.Seconds
				alloc += kr.AllocBytes
			}
			row = append(row, cell)
		}
		t.AddRow(append(row, fmt.Sprintf("%.4f", total), fmt.Sprintf("%.1f", float64(alloc)/float64(cfg.M())))...)
	}
	emit(t, output)
	return nil
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad entry %q (want positive integers)", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prbench:", err)
	os.Exit(1)
}

func parseKernels(s string) ([]core.Kernel, error) {
	var ks []core.Kernel
	for _, c := range s {
		switch c {
		case '0':
			ks = append(ks, core.K0Generate)
		case '1':
			ks = append(ks, core.K1Sort)
		case '2':
			ks = append(ks, core.K2Filter)
		case '3':
			ks = append(ks, core.K3PageRank)
		default:
			return nil, fmt.Errorf("bad kernel %q in -kernels", string(c))
		}
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("-kernels selected nothing")
	}
	return ks, nil
}

func emit(t *results.Table, format string) {
	switch format {
	case "csv":
		fmt.Print(t.CSV())
	case "markdown":
		fmt.Print(t.Markdown())
	default:
		fmt.Print(t.Plain())
	}
}

// The prbench/v3 JSON schema (documented in the README): one object per
// pipeline run, the per-kernel rows of the table plus the allocation and
// communication counters that seed the BENCH_*.json perf trajectory.
// v2 added the edge-file format, the encoded kernel-0/kernel-1 file
// footprints, and the out-of-core spill record.  v3 adds the staged
// artifact cache: the run's per-stage hit/miss record, the configured
// byte budget, and the -cachesweep report (a second object shape under
// the same schema string, distinguished by its "cacheSweep" array).
type jsonKernel struct {
	Kernel         string  `json:"kernel"`
	Seconds        float64 `json:"seconds"`
	Edges          uint64  `json:"edges"`
	EdgesPerSecond float64 `json:"edgesPerSecond"`
	Allocs         uint64  `json:"allocs"`
	AllocBytes     uint64  `json:"allocBytes"`
}

type jsonComm struct {
	AllToAllBytes  uint64 `json:"allToAllBytes"`
	AllReduceCalls uint64 `json:"allReduceCalls"`
	AllReduceBytes uint64 `json:"allReduceBytes"`
	BroadcastCalls uint64 `json:"broadcastCalls"`
	BroadcastBytes uint64 `json:"broadcastBytes"`
	TotalBytes     uint64 `json:"totalBytes"`
}

type jsonSpill struct {
	Codec        string `json:"codec"`
	Runs         int    `json:"runs"`
	BytesWritten int64  `json:"bytesWritten"`
	BytesRead    int64  `json:"bytesRead"`
}

type jsonCacheStage struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// jsonCacheStats is a run's per-stage staged-cache record.  A hit at a
// deeper stage short-circuits the shallower ones, so a warm run shows a
// matrix hit and zeros elsewhere.
type jsonCacheStats struct {
	Edges  jsonCacheStage `json:"edges"`
	Sorted jsonCacheStage `json:"sorted"`
	Matrix jsonCacheStage `json:"matrix"`
}

func newJSONCacheStats(c *core.CacheStats) *jsonCacheStats {
	if c == nil {
		return nil
	}
	return &jsonCacheStats{
		Edges:  jsonCacheStage{Hits: c.Edges.Hits, Misses: c.Edges.Misses},
		Sorted: jsonCacheStage{Hits: c.Sorted.Hits, Misses: c.Sorted.Misses},
		Matrix: jsonCacheStage{Hits: c.Matrix.Hits, Misses: c.Matrix.Misses},
	}
}

type jsonReport struct {
	Schema       string           `json:"schema"`
	Scale        int              `json:"scale"`
	EdgeFactor   int              `json:"edgeFactor"`
	Seed         uint64           `json:"seed"`
	Variant      string           `json:"variant"`
	Generator    string           `json:"generator"`
	Format       string           `json:"format"`
	Workers      int              `json:"workers"`
	RankWorkers  int              `json:"rankWorkers"`
	DistMode     string           `json:"distMode"`
	RunEdges     int              `json:"runEdges,omitempty"`
	N            uint64           `json:"n"`
	M            uint64           `json:"m"`
	Kernels      []jsonKernel     `json:"kernels"`
	EncodedBytes map[string]int64 `json:"encodedBytes,omitempty"`
	NNZ          int              `json:"nnz,omitempty"`
	MatrixMass   float64          `json:"matrixMass,omitempty"`
	Iterations   int              `json:"iterations,omitempty"`
	Comm         *jsonComm        `json:"comm,omitempty"`
	Spill        *jsonSpill       `json:"spill,omitempty"`
	Cache        *jsonCacheStats  `json:"cache,omitempty"`
	CacheBudget  int64            `json:"cacheBudgetBytes,omitempty"`
}

// printResultJSON emits the prbench/v3 report for one pipeline run.
func printResultJSON(res *core.Result, cacheBudget int64) error {
	rep := jsonReport{
		Schema:      "prbench/v3",
		Scale:       res.Config.Scale,
		EdgeFactor:  res.Config.EdgeFactor,
		Seed:        res.Config.Seed,
		Variant:     res.Config.Variant,
		Generator:   string(res.Config.Generator),
		Format:      pipeline.FormatName(res.Config),
		Workers:     res.Config.Workers,
		RankWorkers: res.Config.RankWorkers,
		DistMode:    res.Config.DistMode,
		RunEdges:    res.Config.RunEdges,
		N:           res.Config.N(),
		M:           res.Config.M(),
		NNZ:         res.NNZ,
		MatrixMass:  res.MatrixMass,
		Iterations:  res.RankIterations,
		Cache:       newJSONCacheStats(res.Cache),
		CacheBudget: cacheBudget,
	}
	// The encoded footprint of the surviving edge files: measured from
	// the run's FS, absent for any stage whose files were not produced.
	if res.Config.FS != nil {
		if codec, err := fastio.CodecByName(rep.Format); err == nil {
			for _, prefix := range []string{"k0", "k1"} {
				if n, err := fastio.StripedBytes(res.Config.FS, prefix, codec); err == nil {
					if rep.EncodedBytes == nil {
						rep.EncodedBytes = map[string]int64{}
					}
					rep.EncodedBytes[prefix] = n
				}
			}
		}
	}
	if res.Spill != nil {
		rep.Spill = &jsonSpill{
			Codec:        res.Spill.Codec,
			Runs:         res.Spill.Runs,
			BytesWritten: res.Spill.BytesWritten,
			BytesRead:    res.Spill.BytesRead,
		}
	}
	for _, k := range res.Kernels {
		rep.Kernels = append(rep.Kernels, jsonKernel{
			Kernel:         k.Kernel.String(),
			Seconds:        k.Seconds,
			Edges:          k.Edges,
			EdgesPerSecond: k.EdgesPerSecond,
			Allocs:         k.Allocs,
			AllocBytes:     k.AllocBytes,
		})
	}
	if res.Comm != nil {
		rep.Comm = &jsonComm{
			AllToAllBytes:  res.Comm.AllToAllBytes,
			AllReduceCalls: res.Comm.AllReduceCalls,
			AllReduceBytes: res.Comm.AllReduceBytes,
			BroadcastCalls: res.Comm.BroadcastCalls,
			BroadcastBytes: res.Comm.BroadcastBytes,
			TotalBytes:     res.Comm.AllToAllBytes + res.Comm.AllReduceBytes + res.Comm.BroadcastBytes,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func printResult(res *core.Result, format string) {
	t := results.NewTable(
		fmt.Sprintf("PageRank pipeline: scale %d, variant %s, N=%s, M=%s",
			res.Config.Scale, res.Config.Variant,
			pipeline.HumanCount(res.Config.N()), pipeline.HumanCount(res.Config.M())),
		"kernel", "seconds", "edges", "edges/second", "allocs", "alloc bytes")
	for _, k := range res.Kernels {
		t.AddRow(k.Kernel.String(),
			fmt.Sprintf("%.4f", k.Seconds),
			fmt.Sprintf("%d", k.Edges),
			fmt.Sprintf("%.4g", k.EdgesPerSecond),
			fmt.Sprintf("%d", k.Allocs),
			fmt.Sprintf("%d", k.AllocBytes))
	}
	emit(t, format)
	if res.NNZ > 0 {
		fmt.Printf("matrix: %d nonzeros after filtering, mass before filtering %.0f (M=%d)\n",
			res.NNZ, res.MatrixMass, res.Config.M())
	}
}

func runSweep(ctx context.Context, minScale, maxScale, edgeFactor int, seed uint64, variant, format string, ascii bool) error {
	if minScale > maxScale {
		return fmt.Errorf("minscale %d > maxscale %d", minScale, maxScale)
	}
	// The figure sweep measures kernel 0 per variant, so its service
	// runs with the generator cache disabled: a cached edge list would
	// turn the reported K0 edges/second into a cache fetch.
	svc := core.NewService(core.WithCacheBudget(0), core.WithMaxConcurrent(1))
	defer svc.Close()
	variants := variantList(variant)
	figures := [4]*results.Figure{}
	titles := [4]string{
		"Figure 4. Kernel 0 (generate) measurements",
		"Figure 5. Kernel 1 (sort) measurements",
		"Figure 6. Kernel 2 (filter) measurements",
		"Figure 7. Kernel 3 (PageRank) measurements",
	}
	for i := range figures {
		figures[i] = &results.Figure{Title: titles[i], XLabel: "number of edges", YLabel: "edges per second"}
	}
	for _, v := range variants {
		series := [4]results.Series{}
		for k := range series {
			series[k].Label = v
		}
		for s := minScale; s <= maxScale; s++ {
			cfg := core.Config{Scale: s, EdgeFactor: edgeFactor, Seed: seed, Variant: v}
			res, err := svc.Run(ctx, cfg)
			if err != nil {
				return fmt.Errorf("scale %d variant %s: %w", s, v, err)
			}
			m := float64(cfg.M())
			for k, kr := range res.Kernels {
				series[k].X = append(series[k].X, m)
				series[k].Y = append(series[k].Y, kr.EdgesPerSecond)
			}
			fmt.Fprintf(os.Stderr, "done scale=%d variant=%s\n", s, v)
		}
		for k := range figures {
			figures[k].Add(series[k])
		}
	}
	for _, f := range figures {
		fmt.Println(f.Title)
		fmt.Print(f.CSV())
		if ascii {
			fmt.Print(f.ASCII(64, 16))
		}
		fmt.Println()
	}
	return nil
}

// jsonCacheSweepRow is one variant's cold/warm measurement in the
// -cachesweep -json report.  WarmCache is absent for variants that opt
// out of every cache stage (parallel) — their warm run recomputes all
// four kernels.
type jsonCacheSweepRow struct {
	Variant         string          `json:"variant"`
	ColdSeconds     float64         `json:"coldSeconds"`
	WarmSeconds     float64         `json:"warmSeconds"`
	Speedup         float64         `json:"speedup"`
	WarmCache       *jsonCacheStats `json:"warmCache,omitempty"`
	ResidentEntries int             `json:"residentCacheEntries"`
	ResidentBytes   int64           `json:"residentCacheBytes"`
}

// jsonCacheSweep is the -cachesweep shape of the prbench/v3 schema.
type jsonCacheSweep struct {
	Schema      string              `json:"schema"`
	Scale       int                 `json:"scale"`
	EdgeFactor  int                 `json:"edgeFactor"`
	Seed        uint64              `json:"seed"`
	Iterations  int                 `json:"iterations"`
	DistMode    string              `json:"distMode,omitempty"`
	Workers     int                 `json:"workers,omitempty"`
	CacheBudget int64               `json:"cacheBudgetBytes,omitempty"`
	Sweep       []jsonCacheSweepRow `json:"cacheSweep"`
}

// runCacheSweep is the staged-artifact-cache ablation: each variant runs
// the same configuration twice against its own fresh service — cold,
// then warm — and the table reports the wall-clock speedup next to the
// warm run's per-stage hit/miss counters and the cache's resident
// footprint.  The warm ranks are cross-checked bit for bit against the
// cold run's: the cache trades time, never output.
func runCacheSweep(ctx context.Context, scale, edgeFactor int, seed uint64, nfiles int, variants []string, budget int64, workers int, distMode string, iterations int, damping float64, dangling bool, output string, jsonOut bool) error {
	rows := make([]jsonCacheSweepRow, 0, len(variants))
	for _, v := range variants {
		opts := []core.ServiceOption{core.WithMaxConcurrent(1)}
		if budget > 0 {
			opts = append(opts, core.WithCacheBudget(budget))
		}
		svc := core.NewService(opts...)
		cfg := core.Config{
			Scale: scale, EdgeFactor: edgeFactor, Seed: seed, NFiles: nfiles,
			Variant: v, Workers: workers, DistMode: distMode, KeepRank: true,
			PageRank: pagerank.Options{Iterations: iterations, Damping: damping, Dangling: dangling},
		}
		run := func(what string) (*core.Result, float64, error) {
			start := time.Now()
			res, err := svc.Run(ctx, cfg)
			if err != nil {
				return nil, 0, fmt.Errorf("%s %s: %w", v, what, err)
			}
			return res, time.Since(start).Seconds(), nil
		}
		cold, coldS, err := run("cold")
		if err != nil {
			svc.Close()
			return err
		}
		warm, warmS, err := run("warm")
		if err != nil {
			svc.Close()
			return err
		}
		for i := range cold.Rank {
			if cold.Rank[i] != warm.Rank[i] {
				svc.Close()
				return fmt.Errorf("%s: warm rank vector diverges from cold at %d", v, i)
			}
		}
		st := svc.Stats()
		rows = append(rows, jsonCacheSweepRow{
			Variant: v, ColdSeconds: coldS, WarmSeconds: warmS,
			Speedup:         coldS / warmS,
			WarmCache:       newJSONCacheStats(warm.Cache),
			ResidentEntries: st.CacheEntries,
			ResidentBytes:   st.CacheBytes,
		})
		svc.Close()
		fmt.Fprintf(os.Stderr, "done variant=%s cold=%.3fs warm=%.3fs\n", v, coldS, warmS)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonCacheSweep{
			Schema: "prbench/v3", Scale: scale, EdgeFactor: edgeFactor,
			Seed: seed, Iterations: iterations, DistMode: distMode, Workers: workers,
			CacheBudget: budget, Sweep: rows,
		})
	}
	t := results.NewTable(
		fmt.Sprintf("Staged-cache cold/warm ablation: scale %d, %d iterations", scale, iterations),
		"variant", "cold s", "warm s", "speedup", "edges h/m", "sorted h/m", "matrix h/m", "cache MB")
	for _, r := range rows {
		eh, sh, mh := "-", "-", "-"
		if r.WarmCache != nil {
			hm := func(s jsonCacheStage) string { return fmt.Sprintf("%d/%d", s.Hits, s.Misses) }
			eh, sh, mh = hm(r.WarmCache.Edges), hm(r.WarmCache.Sorted), hm(r.WarmCache.Matrix)
		}
		t.AddRow(r.Variant,
			fmt.Sprintf("%.4f", r.ColdSeconds),
			fmt.Sprintf("%.4f", r.WarmSeconds),
			fmt.Sprintf("%.2fx", r.Speedup),
			eh, sh, mh,
			fmt.Sprintf("%.2f", float64(r.ResidentBytes)/1e6))
	}
	emit(t, output)
	fmt.Println("cross-check: warm rank vectors bit-for-bit identical to cold")
	return nil
}

// runFormatSweep is the edge-file format ablation: it runs the full
// pipeline once per codec on the same graph, tabulates kernel-1
// edges/second next to the encoded kernel-0 footprint and the spill
// record, and asserts the final rank vector is bit-for-bit identical
// across formats — the codecs are transport, never semantics.
func runFormatSweep(ctx context.Context, svc *core.Service, scale, edgeFactor int, seed uint64, nfiles int, variant string, runEdges, iterations int, damping float64, dangling bool, output string) error {
	if variant == "all" {
		return fmt.Errorf("-formatsweep ablates one variant; pick one")
	}
	formats := []string{"tsv", "bin", "packed"}
	t := results.NewTable(
		fmt.Sprintf("Kernel-1 edge-file format ablation: scale %d, variant %s", scale, variant),
		"format", "K1 seconds", "K1 edges/s", "k0 bytes/edge", "spill codec", "spill B/edge")
	var baseRank []float64
	m := float64(uint64(edgeFactor) << uint(scale))
	for _, f := range formats {
		cfg := core.Config{
			Scale: scale, EdgeFactor: edgeFactor, Seed: seed, NFiles: nfiles,
			Variant: variant, Format: f, RunEdges: runEdges, KeepRank: true,
			PageRank: pagerank.Options{Iterations: iterations, Damping: damping, Dangling: dangling},
		}
		res, err := svc.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("format %s: %w", f, err)
		}
		var k1 core.KernelResult
		for _, k := range res.Kernels {
			if k.Kernel == core.K1Sort {
				k1 = k
			}
		}
		codec, err := fastio.CodecByName(f)
		if err != nil {
			return err
		}
		k0Bytes, err := fastio.StripedBytes(res.Config.FS, "k0", codec)
		if err != nil {
			return fmt.Errorf("format %s: sizing k0 files: %w", f, err)
		}
		spillCodec, spillPerEdge := "-", "-"
		if res.Spill != nil && res.Spill.BytesWritten > 0 {
			spillCodec = res.Spill.Codec
			spillPerEdge = fmt.Sprintf("%.2f", float64(res.Spill.BytesWritten)/m)
		}
		t.AddRow(f,
			fmt.Sprintf("%.4f", k1.Seconds),
			fmt.Sprintf("%.4g", k1.EdgesPerSecond),
			fmt.Sprintf("%.2f", float64(k0Bytes)/m),
			spillCodec, spillPerEdge)
		if baseRank == nil {
			baseRank = res.Rank
		} else {
			for i := range baseRank {
				if baseRank[i] != res.Rank[i] {
					return fmt.Errorf("format %s: rank vector diverges from %s at %d", f, formats[0], i)
				}
			}
		}
	}
	emit(t, output)
	fmt.Println("cross-check: final rank vectors bit-for-bit identical across formats")
	return nil
}

// parseFault parses the -inject-fault spec: "RANK@ITER" kills RANK at
// the boundary after ITER completed kernel-3 iterations; a trailing
// "@ckpt" moves the kill between the rank's chunk write and the epoch
// commit, leaving the torn epoch the resume must skip.
func parseFault(s string) (*core.FaultPlan, error) {
	parts := strings.Split(s, "@")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, fmt.Errorf(`bad -inject-fault %q (want "RANK@ITER" or "RANK@ITER@ckpt")`, s)
	}
	rank, err1 := strconv.Atoi(parts[0])
	iter, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf(`bad -inject-fault %q (want "RANK@ITER" or "RANK@ITER@ckpt")`, s)
	}
	f := &core.FaultPlan{KillRank: rank, AtIteration: iter}
	if len(parts) == 3 {
		if parts[2] != "ckpt" {
			return nil, fmt.Errorf(`bad -inject-fault suffix %q (only "ckpt")`, parts[2])
		}
		f.DuringCheckpoint = true
	}
	return f, nil
}

// k3Seconds extracts the kernel-3 wall clock from a pipeline result.
func k3Seconds(res *core.Result) float64 {
	for _, k := range res.Kernels {
		if k.Kernel == core.K3PageRank {
			return k.Seconds
		}
	}
	return 0
}

// runCheckpointed is the checkpoint/restart demonstration: a baseline
// run without checkpointing, then the same configuration writing an
// epoch every N iterations — optionally killed mid-run by the fault
// plan and resumed from the newest complete epoch — with the final
// ranks cross-checked bit for bit against the baseline and the storage
// traffic metered, so the checkpoint overhead is a measured number next
// to the recovery proof.
func runCheckpointed(ctx context.Context, svc *core.Service, cfg core.Config, every int, faultSpec, dir string) error {
	cfg.KeepRank = true
	base, err := svc.Run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	baseK3 := k3Seconds(base)
	iters := base.RankIterations

	var store vfs.FS = vfs.NewMem()
	if dir != "" {
		d, err := vfs.NewDir(dir)
		if err != nil {
			return err
		}
		store = d
	}
	meter := vfs.NewMetered(store)
	var saved []int64
	ck := cfg
	ck.Checkpoint = core.CheckpointSpec{
		FS: meter, Every: every, Resume: true,
		OnCommit: func(epoch int64) { saved = append(saved, epoch) },
	}
	fmt.Printf("checkpointed distributed kernel 3: scale %d, variant %s, epoch every %d of %d iterations\n",
		cfg.Scale, cfg.Variant, every, iters)
	fmt.Printf("  baseline kernel-3:  %.4fs (no checkpointing)\n", baseK3)

	if faultSpec != "" {
		fault, err := parseFault(faultSpec)
		if err != nil {
			return err
		}
		killed := ck
		killed.Fault = fault
		if _, err := svc.Run(ctx, killed); !errors.Is(err, core.ErrFaultInjected) {
			return fmt.Errorf("fault run: got %v, want %v", err, core.ErrFaultInjected)
		}
		when := fmt.Sprintf("after iteration %d", fault.AtIteration)
		if fault.DuringCheckpoint {
			when = fmt.Sprintf("during the epoch-%d checkpoint write (torn epoch)", fault.AtIteration)
		}
		fmt.Printf("  injected fault:     rank %d killed %s\n", fault.KillRank, when)
		newest := int64(0)
		if len(saved) > 0 {
			newest = saved[len(saved)-1]
		}
		fmt.Printf("  epochs before kill: %d (newest complete at iteration %d)\n", len(saved), newest)
	}

	res, err := svc.Run(ctx, ck) // fault-free: completes, resuming if epochs exist
	if err != nil {
		return fmt.Errorf("checkpointed run: %w", err)
	}
	st := res.Checkpoint
	if st == nil {
		return fmt.Errorf("checkpointed run reported no checkpoint stats")
	}
	if st.Resumed {
		fmt.Printf("  resume:             from epoch %d, re-ran %d of %d iterations (%d torn epoch(s) skipped)\n",
			st.ResumedFrom, int64(iters)-st.ResumedFrom, iters, st.TornSkipped)
	}
	ckK3 := k3Seconds(res)
	if st.Resumed {
		fmt.Printf("  resumed kernel-3:   %.4fs\n", ckK3)
	} else {
		fmt.Printf("  checkpointed K3:    %.4fs (%+.1f%% over baseline)\n", ckK3, 100*(ckK3-baseK3)/baseK3)
	}
	iost := meter.Stats()
	fmt.Printf("  checkpoint storage: %d epoch(s) committed, %d bytes written, %d read back\n",
		len(saved), iost.BytesWritten, iost.BytesRead)
	if len(base.Rank) != len(res.Rank) {
		return fmt.Errorf("cross-check failed: rank vector lengths differ")
	}
	for i := range base.Rank {
		if base.Rank[i] != res.Rank[i] {
			return fmt.Errorf("cross-check failed: rank vectors differ at %d after recovery", i)
		}
	}
	fmt.Println("  cross-check:        final ranks bit-for-bit equal to the uncheckpointed run")
	return nil
}

func runDistributed(ctx context.Context, svc *core.Service, scale, edgeFactor int, seed uint64, procs, rankWorkers, iterations int, damping float64, dangling bool, mode string, runEdges int) error {
	l, err := svc.Edges(ctx, core.GraphKey{Scale: scale, EdgeFactor: edgeFactor, Seed: seed})
	if err != nil {
		return err
	}
	n := 1 << uint(scale)
	opt := pagerank.Options{Iterations: iterations, Damping: damping, Dangling: dangling, Seed: seed}
	modes := []dist.ExecMode{}
	switch mode {
	case "both":
		modes = append(modes, dist.ExecSim, dist.ExecGoroutine)
	case "all":
		modes = append(modes, dist.ExecSim, dist.ExecGoroutine, dist.ExecSocket)
	default:
		m, err := dist.ParseExecMode(mode)
		if err != nil {
			return err
		}
		modes = append(modes, m)
	}
	if runEdges > 0 {
		if err := runExternalSort(ctx, l, procs, runEdges, modes); err != nil {
			return err
		}
	}
	var first *dist.Result
	for _, m := range modes {
		out, err := dist.Execute(ctx, dist.Spec{
			Config: dist.Config{Mode: m, Workers: rankWorkers},
			Op:     dist.OpRun, Edges: l, N: n, Procs: procs, PageRank: opt,
		})
		if err != nil {
			return err
		}
		res := out.Run
		fmt.Printf("distributed pipeline (%v): scale %d, %d ranks × %d workers\n", m, scale, procs, rankWorkers)
		fmt.Printf("  filtered nonzeros:  %d\n", res.NNZ)
		fmt.Printf("  all-reduce calls:   %d (%.3g MB)\n", res.Comm.AllReduceCalls, float64(res.Comm.AllReduceBytes)/1e6)
		fmt.Printf("  broadcast calls:    %d (%.3g MB)\n", res.Comm.BroadcastCalls, float64(res.Comm.BroadcastBytes)/1e6)
		predicted := dist.PredictedCommBytes(n, procs, res.Iterations, dangling)
		fmt.Printf("  predicted comm:     %.3g MB\n", float64(predicted)/1e6)
		if res.Wire != nil {
			metered := res.Comm.AllToAllBytes + res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
			fmt.Printf("  socket wire:        %.3g MB payload over %d frames\n",
				float64(res.Wire.DataBytes)/1e6, res.Wire.Frames)
			if res.Wire.DataBytes != metered {
				return fmt.Errorf("socket wire carried %d payload bytes but the collectives metered %d",
					res.Wire.DataBytes, metered)
			}
			fmt.Println("  wire cross-check:   measured socket payload equals the metered comm bytes exactly")
		}
		if res.RankSeconds != nil {
			slowest := 0.0
			for _, s := range res.RankSeconds {
				if s > slowest {
					slowest = s
				}
			}
			fmt.Printf("  slowest rank:       %.4fs (of %d concurrent ranks)\n", slowest, len(res.RankSeconds))
		}
		if first == nil {
			first = res
		} else {
			if first.Comm != res.Comm {
				return fmt.Errorf("mode cross-check failed: comm records differ: %+v vs %+v", first.Comm, res.Comm)
			}
			for i := range first.Rank {
				if first.Rank[i] != res.Rank[i] {
					return fmt.Errorf("mode cross-check failed: rank vectors differ at %d", i)
				}
			}
			fmt.Printf("  cross-check:        %v agrees with %v bit-for-bit, bytes included\n", m, modes[0])
		}
	}
	return nil
}

// runExternalSort runs the out-of-core distributed kernel 1 in each
// requested mode, verifies the output against the serial stable radix
// sort and the communication record against the in-memory distributed
// sort, and reports spill statistics.
func runExternalSort(ctx context.Context, l *edge.List, procs, runEdges int, modes []dist.ExecMode) error {
	serial := l.Clone()
	xsort.RadixByU(serial)
	inMemOut, err := dist.Execute(ctx, dist.Spec{Op: dist.OpSort, Edges: l, Procs: procs})
	if err != nil {
		return err
	}
	inMem := inMemOut.Sort
	for _, m := range modes {
		extOut, err := dist.Execute(ctx, dist.Spec{
			Config: dist.Config{Mode: m}, Op: dist.OpSortExternal,
			Edges: l, Procs: procs, Ext: dist.ExtSortConfig{RunEdges: runEdges},
		})
		if err != nil {
			return err
		}
		res := extOut.ExtSort
		totalRuns := 0
		for _, r := range res.RunsPerRank {
			totalRuns += r
		}
		fmt.Printf("out-of-core distributed sort (%v): %d ranks, %d edges/run buffer\n", m, procs, runEdges)
		fmt.Printf("  spilled runs:       %d (%.3g MB written, %.3g MB read back)\n",
			totalRuns, float64(res.Spill.BytesWritten)/1e6, float64(res.Spill.BytesRead)/1e6)
		fmt.Printf("  all-to-all bytes:   %d (in-memory sort: %d)\n", res.Comm.AllToAllBytes, inMem.Comm.AllToAllBytes)
		if !res.Sorted.Equal(serial) {
			return fmt.Errorf("out-of-core sort (%v) diverges from serial radix sort", m)
		}
		if res.Comm != inMem.Comm {
			return fmt.Errorf("out-of-core sort (%v) comm %+v differs from in-memory %+v", m, res.Comm, inMem.Comm)
		}
		fmt.Println("  cross-check:        bit-for-bit equal to serial sort, bytes equal to in-memory sort")
	}
	return nil
}

// runProcSweep runs the goroutine-rank pipeline at each requested rank
// count crossed with each hybrid intra-rank worker count, tabulating
// wall-clock scaling next to the hardware model's predicted speedup and
// asserting the byte identity at every (p, w) — the Workers axis must
// change wall clock only, never a byte.  Every cell draws the input from
// the service's generator cache, so the Kronecker graph is generated
// once per sweep, not once per cell; the table footer reports the cache
// counters as proof.
func runProcSweep(ctx context.Context, svc *core.Service, scale, edgeFactor int, seed uint64, sweep string, workerCounts []int, iterations int, damping float64, dangling bool, format string) error {
	ps, err := parseIntList(sweep)
	if err != nil {
		return fmt.Errorf("bad -procsweep: %w", err)
	}
	key := core.GraphKey{Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
	n := 1 << uint(scale)
	h := perfmodel.PaperNode()
	t := results.NewTable(
		fmt.Sprintf("Goroutine-rank scaling: scale %d, %d iterations", scale, iterations),
		"ranks", "workers", "slowest rank s", "speedup", "model speedup", "imbalance", "comm MB", "bytes=model")
	base, modelBase := 0.0, 0.0
	for _, p := range ps {
		for _, rw := range workerCounts {
			l, err := svc.Edges(ctx, key) // one generation, then cache hits
			if err != nil {
				return err
			}
			opt := pagerank.Options{Iterations: iterations, Damping: damping, Dangling: dangling, Seed: seed}
			out, err := dist.Execute(ctx, dist.Spec{
				Config: dist.Config{Mode: dist.ExecGoroutine, Workers: rw},
				Op:     dist.OpRun, Edges: l, N: n, Procs: p, PageRank: opt,
			})
			if err != nil {
				return err
			}
			res := out.Run
			w := perfmodel.Workload{Scale: scale, EdgeFactor: edgeFactor, Iterations: iterations, RankWorkers: rw}
			cmp, err := perfmodel.CompareRankElapsed(h, w, res.RankSeconds)
			if err != nil {
				return err
			}
			if base == 0 {
				base = cmp.MeasuredSeconds
				modelBase = perfmodel.ParallelKernel3(h, w, p).EdgesPerSecond
			}
			measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
			exact := measured == dist.PredictedCommBytes(n, p, res.Iterations, dangling)
			t.AddRow(fmt.Sprintf("%d", p),
				fmt.Sprintf("%d", rw),
				fmt.Sprintf("%.4f", cmp.MeasuredSeconds),
				fmt.Sprintf("%.2f", base/cmp.MeasuredSeconds),
				fmt.Sprintf("%.2f", perfmodel.ParallelKernel3(h, w, p).EdgesPerSecond/modelBase),
				fmt.Sprintf("%.2f", cmp.Imbalance),
				fmt.Sprintf("%.3g", float64(measured)/1e6),
				fmt.Sprintf("%v", exact))
			if !exact {
				return fmt.Errorf("p=%d w=%d: measured channel bytes diverge from PredictedCommBytes", p, rw)
			}
		}
	}
	emit(t, format)
	st := svc.Stats()
	fmt.Printf("generator cache: %d hits, %d misses — the sweep's graph was generated once, not once per cell\n",
		st.CacheEdges.Hits, st.CacheEdges.Misses)
	return nil
}

func printPredictions(scale int, format string) {
	h := perfmodel.PaperNode()
	w := perfmodel.Workload{Scale: scale}
	preds := perfmodel.All(h, w)
	t := results.NewTable(
		fmt.Sprintf("Hardware-model predictions (%s, scale %d)", h.Name, scale),
		"kernel", "predicted seconds", "predicted edges/s", "bound")
	for i, p := range preds {
		t.AddRow(fmt.Sprintf("kernel%d", i),
			fmt.Sprintf("%.3f", p.Seconds),
			fmt.Sprintf("%.3g", p.EdgesPerSecond),
			p.Bound)
	}
	emit(t, format)
	pt := results.NewTable("Parallel kernel-3 model", "processors", "speedup", "bound")
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		pred := perfmodel.ParallelKernel3(h, w, p)
		pt.AddRow(fmt.Sprintf("%d", p),
			fmt.Sprintf("%.2f", perfmodel.Speedup(h, w, p)),
			pred.Bound)
	}
	emit(pt, format)
}

// Command prbench measures one configuration of the PageRank pipeline
// benchmark.  The paper's evaluation — Table II, Figures 4–7, the model
// predictions, the distributed mode cross-check, the out-of-core sort
// check and the p × w scaling table — is cmd/prreport's.
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
// A distributed pipeline run: -workers is the rank count of the dist
// variants, -distmode picks their execution mode (goroutine or socket)
// and -rankworkers adds hybrid intra-rank worker goroutines:
//
//	prbench -scale 16 -variant distgo -workers 8 -rankworkers 2 -distmode socket
//
// Edge-file formats and out-of-core kernel 1: -format selects the on-disk
// codec for the kernel files (tsv is the paper-faithful default) and
// -runedges takes kernel 1 out of core with that run buffer (every
// variant but coo; per rank for the dist variants' sample sort); -json
// reports the encoded file footprint and the spill record:
//
//	prbench -scale 16 -variant extsort -format packed -runedges 65536 -json
//	prbench -scale 16 -variant csr -runedges 65536
//	prbench -scale 14 -variant dist -workers 8 -runedges 65536
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
// Matrix-cache ablation: -cachesweep runs every variant cold then warm
// against a fresh service and tabulates the wall-clock speedup next to
// the warm run's matrix hit/miss counters and the cache's resident
// footprint; -cachebudget bounds the cache in bytes.
// With -distmode socket the dist variants' warm runs reuse the
// service's resident workers:
//
//	prbench -scale 16 -cachesweep
//	prbench -scale 16 -cachesweep -variant csr,dist -cachebudget 268435456
//	prbench -scale 16 -cachesweep -variant distgo -distmode socket -workers 2
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
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/results"
	"repro/internal/vfs"
)

// The flags are package-level so the documentation test can look every
// flag a doc names up in flag.CommandLine.
var (
	scale       = flag.Int("scale", 16, "Graph500 scale factor S (N = 2^S)")
	edgeFactor  = flag.Int("edgefactor", 16, "average edges per vertex k")
	seed        = flag.Uint64("seed", 1, "random seed")
	nfiles      = flag.Int("nfiles", 1, "number of edge files (the paper's free parameter)")
	variant     = flag.String("variant", "csr", "implementation variant; a comma-separated list or 'all' runs each in turn, cold, and tabulates per-kernel edges/s (-cachesweep takes lists too; -json and -checkpoint-every take one variant)")
	generator   = flag.String("generator", "kronecker", "kernel-0 generator: kronecker, ppl, er")
	workers     = flag.Int("workers", 0, "kernel-0 sampling width (and shuffle width, all but extsort), whole-list tsv/bin/packed encode and decode width (k0 write, k1 read, sort and write; not naivetsv), kernel-1 sort width (all but coo), kernel-2 build and filter, kernel-3 set-up and kernel-3 gather team width (csr, extsort), same bits at any width; or the dist variants' rank count (0 = GOMAXPROCS, or 4 ranks)")
	dir         = flag.String("dir", "", "storage directory (empty = in-memory)")
	iterations  = flag.Int("iterations", 20, "kernel-3 PageRank iterations")
	damping     = flag.Float64("damping", 0.85, "kernel-3 damping factor c")
	dangling    = flag.Bool("dangling", false, "apply the dangling-node correction in kernel 3")
	sortEnds    = flag.Bool("sortends", false, "kernel 1 sorts by (u,v) instead of u")
	kernels     = flag.String("kernels", "0123", "kernels to run, e.g. 01 or 23")
	runEdges    = flag.Int("runedges", 0, "kernel-1 run-buffer size in edges: > 0 sorts out of core (all but coo; per rank for dist), 0 in memory (extsort: M/4)")
	distMode    = flag.String("distmode", "", "distributed execution of the dist variants: goroutine or socket (empty = goroutine)")
	rankWorkers = flag.Int("rankworkers", 1, "hybrid intra-rank worker goroutines per rank (dist variants)")
	format      = flag.String("format", "", "edge-file format: tsv, naivetsv, bin, packed (default: variant's)")
	ckptEvery   = flag.Int("checkpoint-every", 0, "checkpoint the distributed kernel 3 every N iterations and report the overhead against an uncheckpointed baseline (dist variants)")
	ckptDir     = flag.String("checkpoint-dir", "", "durable storage directory for -checkpoint-every epochs (empty = in-memory)")
	injectFault = flag.String("inject-fault", "", `kill a rank mid-kernel-3 and resume: "RANK@ITER" fires after ITER completed iterations, "RANK@ITER@ckpt" fires during the epoch write (requires -checkpoint-every)`)
	cacheSweep  = flag.Bool("cachesweep", false, "run each variant cold then warm against the matrix cache and tabulate the speedup, matrix hit/miss counters and resident cache bytes")
	cacheBudget = flag.Int64("cachebudget", 0, "matrix-cache byte budget (0 = the default entry-capped cache); applies to single runs and -cachesweep")
	output      = flag.String("output", "table", "output format: table, csv, markdown")
	jsonOut     = flag.Bool("json", false, "emit a machine-readable prbench/v3 JSON report (single pipeline runs and -cachesweep; schema in README)")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the measured pipeline run(s) to this file (plain single- and multi-variant runs, in-process modes only)")
	memProfile  = flag.String("memprofile", "", "write an allocation profile (pprof 'allocs') to this file after the measured run(s); same modes as -cpuprofile")
)

func main() {
	flag.Parse()

	// Ctrl-C cancels a run mid-kernel through ctx.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *injectFault != "" && *ckptEvery <= 0 {
		fatal(fmt.Errorf("-inject-fault needs -checkpoint-every: without epochs there is nothing to resume from"))
	}
	if *ckptEvery > 0 && (*cacheSweep || *jsonOut) {
		fatal(fmt.Errorf("-checkpoint-every reports single pipeline runs; drop -cachesweep/-json"))
	}
	if *cpuProfile != "" || *memProfile != "" {
		// The profile brackets the plain pipeline run(s) at the end of
		// main; the other modes interleave set-up with what they measure,
		// and a socket run's ranks are other processes.
		if *cacheSweep || *ckptEvery > 0 {
			fatal(fmt.Errorf("-cpuprofile/-memprofile profile plain pipeline runs; drop -cachesweep/-checkpoint-every"))
		}
		if *distMode == "socket" {
			fatal(fmt.Errorf("-cpuprofile/-memprofile see only this process, and -distmode socket runs the ranks in others; use goroutine"))
		}
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
		RankWorkers:     *rankWorkers,
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
	if *cacheSweep {
		// A bare -cachesweep ablates every variant; an explicit -variant
		// narrows it.
		variants := core.Variants()
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "variant" {
				variants = variantList(*variant)
			}
		})
		if err := runCacheSweep(ctx, cfg, variants, *cacheBudget, *output, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	var svcOpts []core.ServiceOption
	if *cacheBudget > 0 {
		svcOpts = append(svcOpts, core.WithCacheBudget(*cacheBudget))
	}
	svc := core.NewService(svcOpts...)
	defer svc.Close()
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prbench:", err)
	os.Exit(1)
}

// sameBits reports whether two rank vectors are equal bit for bit: the
// same length and the same float64 bits at every index, so −0 and +0
// differ.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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
// footprints, and the out-of-core spill record.  v3 adds the matrix
// cache: the run's hit/miss record, the configured byte budget, and the
// -cachesweep report (a second object shape under the same schema
// string, distinguished by its "cacheSweep" array).
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

// jsonCacheStats is a run's matrix-cache record.
type jsonCacheStats struct {
	Matrix jsonCacheStage `json:"matrix"`
}

func newJSONCacheStats(c *core.CacheStats) *jsonCacheStats {
	if c == nil {
		return nil
	}
	return &jsonCacheStats{Matrix: jsonCacheStage{Hits: c.Matrix.Hits, Misses: c.Matrix.Misses}}
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
	// The encoded footprint of the edge files, as the run measured it
	// when they were written; absent for any stage it did not produce.
	rep.EncodedBytes = res.EncodedBytes
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

// jsonCacheSweepRow is one variant's cold/warm measurement in the
// -cachesweep -json report.  WarmCache is the warm run's cache record: a
// matrix hit, so the warm run executes kernel 3 alone.
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

// runCacheSweep is the matrix-cache ablation: each variant runs the same
// configuration twice against its own fresh service — cold, then warm —
// and the table reports the wall-clock speedup next to the warm run's
// matrix hit/miss counters and the cache's resident footprint.  The warm ranks are cross-checked bit for bit against the
// cold run's: the cache trades time, never output.
func runCacheSweep(ctx context.Context, cfg core.Config, variants []string, budget int64, output string, jsonOut bool) error {
	cfg.KeepRank = true
	rows := make([]jsonCacheSweepRow, 0, len(variants))
	for _, v := range variants {
		opts := []core.ServiceOption{core.WithMaxConcurrent(1)}
		if budget > 0 {
			opts = append(opts, core.WithCacheBudget(budget))
		}
		svc := core.NewService(opts...)
		cfg.Variant = v
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
		if !sameBits(cold.Rank, warm.Rank) {
			svc.Close()
			return fmt.Errorf("%s: warm rank vector differs from cold", v)
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
			Schema: "prbench/v3", Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor,
			Seed: cfg.Seed, Iterations: cfg.PageRank.Iterations, DistMode: cfg.DistMode, Workers: cfg.Workers,
			CacheBudget: budget, Sweep: rows,
		})
	}
	t := results.NewTable(
		fmt.Sprintf("Matrix-cache cold/warm ablation: scale %d, %d iterations", cfg.Scale, cfg.PageRank.Iterations),
		"variant", "cold s", "warm s", "speedup", "matrix h/m", "cache MB")
	for _, r := range rows {
		t.AddRow(r.Variant,
			fmt.Sprintf("%.4f", r.ColdSeconds),
			fmt.Sprintf("%.4f", r.WarmSeconds),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d/%d", r.WarmCache.Matrix.Hits, r.WarmCache.Matrix.Misses),
			fmt.Sprintf("%.2f", float64(r.ResidentBytes)/1e6))
	}
	emit(t, output)
	fmt.Println("cross-check: warm rank vectors bit-for-bit identical to cold")
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
	if !sameBits(base.Rank, res.Rank) {
		return fmt.Errorf("cross-check failed: rank vectors differ after recovery")
	}
	fmt.Println("  cross-check:        final ranks bit-for-bit equal to the uncheckpointed run")
	return nil
}

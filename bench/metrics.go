package main

// metricDef is one named metric of the benchmark.  The same list is
// written in ../BENCHMARK.json; TestBenchmarkJSONMatchesRegistry keeps
// the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent commit's median by which an
	// end-to-end metric may worsen before a change counts as a
	// regression.  Per-layer metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the pipeline sees, measured with
// tracing off.  Every one is reported on every workload and is never 0,
// which is why the paper's per-kernel edges/second are not among them:
// a kernel's rate exists only on the workloads that execute it.  Those
// are kernelRates below, printed beside these in every untraced report
// and bounded through run_s, which is their sum.  The bounds are sized
// against the run-to-run spread measured on a shared 2-core virtual
// machine whose speed shifts by ~10% for minutes at a time (README.md,
// "Bounds").
var endToEnd = []metricDef{
	{"run_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, measured by the traced
// run.  A layer a workload does not load reports 0 there — that a
// warm workload's kernel-0 to kernel-2 layers read 0 is the evidence
// that it bypasses them.  README.md says which end-to-end metric each
// one should move on which workload.
var perLayer = []metricDef{
	{"pipeline.k0_edges_per_s", "edges/s", "higher", 0},
	{"pipeline.k1_edges_per_s", "edges/s", "higher", 0},
	{"pipeline.k2_edges_per_s", "edges/s", "higher", 0},
	{"pipeline.k3_edges_per_s", "edges/s", "higher", 0},
	{"pipeline.k2_allocs", "count", "lower", 0},
	{"pipeline.filter_ns_per_edge", "ns/edge", "lower", 0},
	{"kronecker.ns_per_edge", "ns/edge", "lower", 0},
	{"fastio.encode_ns_per_edge", "ns/edge", "lower", 0},
	{"fastio.decode_ns_per_edge", "ns/edge", "lower", 0},
	{"fastio.bytes_per_edge", "B/edge", "lower", 0},
	{"vfs.read_mb", "MB", "lower", 0},
	{"vfs.write_mb", "MB", "lower", 0},
	{"vfs.write_mbps", "MB/s", "higher", 0},
	{"xsort.sort_ns_per_edge", "ns/edge", "lower", 0},
	{"xsort.scale_ratio", "ratio", "lower", 0},
	{"xsort.ext_ns_per_edge", "ns/edge", "lower", 0},
	{"xsort.ext_runs", "count", "lower", 0},
	{"xsort.spill_mb", "MB", "lower", 0},
	{"sparse.build_ns_per_edge", "ns/edge", "lower", 0},
	{"sparse.build_allocs", "count", "lower", 0},
	{"sparse.spmv_ns_per_nnz", "ns/nnz", "lower", 0},
	{"pagerank.iter_s", "s", "lower", 0},
	{"pagerank.bytes_per_edge_computed", "B/edge", "lower", 0},
	{"pagerank.bw_fraction", "ratio", "higher", 0},
	{"serve.run_overhead_s", "s", "lower", 0},
	{"serve.hit_ratio", "ratio", "higher", 0},
	{"serve.resident_mb", "MB", "lower", 0},
	{"dist.launch_share", "ratio", "lower", 0},
	{"dist.slowest_rank_share", "ratio", "higher", 0},
	{"dist.rank_imbalance", "ratio", "lower", 0},
	{"dist.allreduce_calls", "count", "lower", 0},
	{"dist.comm_mb", "MB", "lower", 0},
	{"dist.comm_pred_ratio", "ratio", "lower", 0},
	{"fabric.wire_data_mb", "MB", "lower", 0},
	{"fabric.wire_overhead_pct", "%", "lower", 0},
	{"fabric.frames", "count", "lower", 0},
	{"perfmodel.k0_pred_ratio", "ratio", "higher", 0},
	{"perfmodel.k1_pred_ratio", "ratio", "higher", 0},
	{"perfmodel.k2_pred_ratio", "ratio", "higher", 0},
	{"perfmodel.k3_pred_ratio", "ratio", "higher", 0},
	{"host.nproc", "count", "higher", 0},
	{"host.gomaxprocs", "count", "higher", 0},
	{"host.llc_mb", "MB", "higher", 0},
	{"host.triad_gbps", "GB/s", "higher", 0},
	{"host.triad_mb", "MB", "higher", 0},
	{"host.triad_large_gbps", "GB/s", "higher", 0},
	{"host.triad_large_mb", "MB", "higher", 0},
	{"trace.k0_replay_gap_pct", "%", "lower", 0},
	{"trace.k1_replay_gap_pct", "%", "lower", 0},
	{"trace.k2_replay_gap_pct", "%", "lower", 0},
	{"trace.k3_replay_gap_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// kernelRates are the paper's metric, one per kernel, indexed by kernel:
// the median of the program's own KernelResult.EdgesPerSecond (kernel 3
// over 20·M) on the workloads where that kernel executes, 0 elsewhere.
// An untraced run reports them as information beside the end-to-end
// metrics; a traced run reports them with the other per-layer metrics.
var kernelRates = perLayer[:4]

// metricSet collects the samples of a run's metrics by name.
type metricSet map[string][]float64

func (m metricSet) add(name string, v ...float64) { m[name] = append(m[name], v...) }

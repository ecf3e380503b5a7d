package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("ten samples: %+v", s)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	s = summarize([]float64{1, 2, 3, 4, 5})
	if s.Q1 != 1.5 || s.Median != 3 || s.Q3 != 4.5 {
		t.Fatalf("five samples: %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Fatalf("one sample: %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("no samples: %+v", s)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Fatalf("spread = %v, want (4.5-1.5)/3", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{39, 0}, {40, 75}, {41, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	samples := make([]float64, 41)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := summarize(samples)
	if s.TailPercentile != 75 || s.Tail != 31 {
		t.Fatalf("41 samples: p%d = %v, want p75 = 31 (ten samples beyond it)", s.TailPercentile, s.Tail)
	}
}

func TestSelfSecondsSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "replay", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "k0", Start: 10e9, End: 40e9},
		{ID: 3, Parent: 2, Name: "leaf", Start: 20e9, End: 30e9, Edges: 5},
		{ID: 4, Parent: 1, Name: "k1", Start: 50e9, End: 70e9},
		{ID: 5, Parent: 4, Name: "leaf", Start: 50e9, End: 55e9, Edges: 5},
		{ID: 6, Parent: 0, Name: "probe", Start: 100e9, End: 110e9},
		{ID: 7, Parent: 6, Name: "leaf", Start: 101e9, End: 102e9, Edges: 1},
	}
	self := selfSeconds(spans)
	for name, want := range map[string]float64{"replay": 50, "k0": 20, "k1": 15, "leaf": 16, "probe": 9} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	// Spans under "replay" and under "probe" stay apart, and one
	// repetition's spans of a name are summed.
	if got := perRep(spans, "replay", "leaf", nsPerEdge); len(got) != 1 || got[0] != 15e9/10 {
		t.Fatalf("replay leaf ns/edge = %v, want [1.5e9]", got)
	}
	if got := perRep(spans, "probe", "leaf", spanSeconds); len(got) != 1 || got[0] != 1 {
		t.Fatalf("probe leaf seconds = %v, want [1]", got)
	}
	if got := perRep(spans, "replay", "absent", spanSeconds); len(got) != 0 {
		t.Fatalf("absent span gave %v", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	err := rec.do("outer", 1, func() error {
		return rec.do("inner", 2, func() error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.spans) != 2 || rec.spans[0].Parent != 0 || rec.spans[1].Parent != rec.spans[0].ID {
		t.Fatalf("spans %+v", rec.spans)
	}
	if o, i := rec.spans[0], rec.spans[1]; i.Start < o.Start || i.End > o.End || i.Edges != 2 {
		t.Fatalf("inner %+v not within outer %+v", i, o)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy("lower", 2, 2.5); got != 0.25 {
		t.Errorf("lower: %v", got)
	}
	if got := worseBy("higher", 4, 3); got != 0.25 {
		t.Errorf("higher: %v", got)
	}
	if got := worseBy("higher", 4, 5); got != -0.25 {
		t.Errorf("improvement: %v", got)
	}
}

// TestWorkloadsSmoke runs every workload at scale 10, untraced and
// traced, and checks that each loads the layers it claims to.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w.Scale = 10
		t.Run(w.Name, func(t *testing.T) {
			if w.Procs > 0 {
				if testing.Short() {
					t.Skip("spawns worker processes")
				}
				// The socket runtime makes its socket directories here.
				t.Setenv("TMPDIR", t.TempDir())
			}
			p := params{seed: 3, seconds: 0.05, tmp: t.TempDir(), triadCap: 1 << 20}
			rep, err := measure(context.Background(), w, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FailedOps != 0 || rep.Ops < minReps {
				t.Fatalf("untraced: %d ops, %d failed: %v", rep.Ops, rep.FailedOps, rep.Failures)
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Fatalf("untraced run reported %d metrics, want every end-to-end one", len(rep.Metrics))
			}
			for _, m := range rep.Metrics {
				if !(m.Median > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Median)
				}
			}
			if m, _ := rep.metric("setup_s"); m.N != setupReps {
				t.Errorf("setup_s has %d samples, want %d", m.N, setupReps)
			}
			line := resultLineOf(rep)
			if !line.Correct || line.Attempted != rep.Ops || len(line.Metrics) != len(endToEnd) {
				t.Errorf("result line %+v", line)
			}

			p.trace = true
			rep, err = measure(context.Background(), w, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FailedOps != 0 {
				t.Fatalf("traced: %d of %d ops failed: %v", rep.FailedOps, rep.Ops, rep.Failures)
			}
			if len(rep.Metrics) != len(perLayer) || len(rep.Spans) == 0 || rep.Host == nil {
				t.Fatalf("traced run reported %d metrics, %d spans, host %v", len(rep.Metrics), len(rep.Spans), rep.Host)
			}
			value := func(name string) float64 {
				m, ok := rep.metric(name)
				if !ok {
					t.Fatalf("traced run lacks %s", name)
				}
				return m.Median
			}
			loaded := func(want bool, names ...string) {
				t.Helper()
				for _, name := range names {
					if got := value(name) != 0; got != want {
						t.Errorf("%s = %v on %s: loaded %v, want %v", name, value(name), w.Name, got, want)
					}
				}
			}
			cold := []string{
				"pipeline.k0_edges_per_s", "pipeline.k1_edges_per_s", "pipeline.k2_edges_per_s",
				"kronecker.ns_per_edge", "fastio.encode_ns_per_edge", "fastio.decode_ns_per_edge",
				"fastio.bytes_per_edge", "vfs.read_mb", "vfs.write_mb", "vfs.write_mbps",
				"sparse.build_ns_per_edge", "pipeline.filter_ns_per_edge", "trace.k0_replay_gap_pct",
			}
			loaded(!w.Warm, cold...)
			loaded(w.Variant == "csr" && !w.Warm, "xsort.sort_ns_per_edge", "xsort.scale_ratio")
			loaded(w.Variant == "extsort", "xsort.ext_ns_per_edge", "xsort.ext_runs", "xsort.spill_mb")
			loaded(w.Warm, "serve.hit_ratio", "serve.resident_mb")
			loaded(w.Procs > 0, "dist.launch_share", "dist.slowest_rank_share", "dist.comm_mb", "fabric.wire_data_mb", "fabric.frames")
			loaded(true, "pipeline.k3_edges_per_s", "serve.run_overhead_s", "pagerank.iter_s", "sparse.spmv_ns_per_nnz", "pagerank.bw_fraction",
				"perfmodel.k3_pred_ratio", "host.nproc", "host.triad_gbps", "trace.k3_replay_gap_pct", "trace.overhead_pct")
			if w.Warm && value("serve.hit_ratio") != 1 {
				t.Errorf("serve.hit_ratio = %v, want exactly 1", value("serve.hit_ratio"))
			}
			if w.Procs > 0 && value("dist.comm_pred_ratio") != 1 {
				t.Errorf("dist.comm_pred_ratio = %v, want exactly 1", value("dist.comm_pred_ratio"))
			}
			if w.Variant == "extsort" && value("xsort.ext_runs") != float64(w.RunEdgesDiv) {
				t.Errorf("xsort.ext_runs = %v, want %d", value("xsort.ext_runs"), w.RunEdgesDiv)
			}
			if ents, err := os.ReadDir(p.tmp); err != nil || len(ents) != 0 {
				t.Errorf("scratch directory not left empty: %v %v", ents, err)
			}
		})
	}
}

// TestCheckCountsAWrongResult pins that the correctness gate fails a
// run whose result differs from the reference.
func TestCheckCountsAWrongResult(t *testing.T) {
	w := workloads[0]
	w.Scale = 8
	s, err := w.setup(context.Background(), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	res, err := s.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(res); err != nil {
		t.Fatalf("unmodified result: %v", err)
	}
	res.Rank[0] = math.Nextafter(res.Rank[0], 1)
	if err := s.check(res); err == nil || !strings.Contains(err.Error(), "bit-for-bit") {
		t.Fatalf("one flipped bit: %v", err)
	}
	res.NNZ++
	if err := s.check(res); err == nil || !strings.Contains(err.Error(), "NNZ") {
		t.Fatalf("wrong NNZ: %v", err)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps ../BENCHMARK.json and the
// binary's metric and workload registries from drifting apart.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, binary's default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, binary has {%s %s}", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, binary has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the binary, want equal and in (0, 0.25]", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s has a bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

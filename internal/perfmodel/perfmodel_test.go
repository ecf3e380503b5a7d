package perfmodel

import (
	"math"
	"testing"
)

func wl() Workload { return Workload{Scale: 20} }

func TestHardwareValidate(t *testing.T) {
	if err := PaperNode().Validate(); err != nil {
		t.Fatalf("PaperNode invalid: %v", err)
	}
	bad := PaperNode()
	bad.MemBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MemBandwidth accepted")
	}
	bad2 := PaperNode()
	bad2.Cores = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	bad3 := PaperNode()
	bad3.NetLatency = -1
	if err := bad3.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestWorkloadDerived(t *testing.T) {
	w := Workload{Scale: 16}
	if w.N() != 65536 {
		t.Errorf("N = %v", w.N())
	}
	if w.M() != 16*65536 {
		t.Errorf("M = %v (default edge factor)", w.M())
	}
}

func TestAllPredictionsPositive(t *testing.T) {
	for _, p := range All(PaperNode(), wl()) {
		if p.Seconds <= 0 || p.EdgesPerSecond <= 0 || p.Bound == "" {
			t.Errorf("degenerate prediction %+v", p)
		}
	}
}

func TestPaperFigureShape(t *testing.T) {
	// The paper's central shape: Figures 4-6 sit around 1e5-1e7 edges/s
	// while Figure 7 (K3) sits around 1e7-1e9 — K3 must be predicted 1-2
	// orders of magnitude faster than K0-K2.
	ps := All(PaperNode(), wl())
	k3 := ps[3].EdgesPerSecond
	for i, p := range ps[:3] {
		if k3 < 10*p.EdgesPerSecond {
			t.Errorf("K3 rate %.3g not >> K%d rate %.3g", k3, i, p.EdgesPerSecond)
		}
	}
	// And the predicted absolute ranges should bracket the paper's axes.
	for i, p := range ps[:3] {
		if p.EdgesPerSecond < 1e5 || p.EdgesPerSecond > 1e8 {
			t.Errorf("K%d predicted %.3g edges/s, outside the paper's 1e5-1e7 decade ballpark", i, p.EdgesPerSecond)
		}
	}
	if k3 < 1e7 || k3 > 2e9 {
		t.Errorf("K3 predicted %.3g edges/s, outside the paper's 1e7-1e9 decade", k3)
	}
}

func TestKernelBounds(t *testing.T) {
	// On the paper node, generating an edge costs ~40 PRNG draws while
	// writing it costs 14 bytes at Lustre speed, so K0 is compute bound;
	// K3 is always memory bound in the serial model.
	if b := Kernel0(PaperNode(), wl()).Bound; b != "compute" {
		t.Errorf("K0 bound = %s, want compute on the paper node", b)
	}
	if b := Kernel3(PaperNode(), wl()).Bound; b != "memory" {
		t.Errorf("K3 bound = %s, want memory", b)
	}
	// With USB-stick-class storage, K0 flips to storage bound.
	slow := PaperNode()
	slow.StorageWriteBW = 10e6
	if b := Kernel0(slow, wl()).Bound; b != "storage" {
		t.Errorf("K0 bound with 10 MB/s disk = %s, want storage", b)
	}
}

func TestMonotoneInBandwidth(t *testing.T) {
	slow := PaperNode()
	fastMem := PaperNode()
	fastMem.MemBandwidth *= 4
	if Kernel3(fastMem, wl()).EdgesPerSecond <= Kernel3(slow, wl()).EdgesPerSecond {
		t.Error("K3 rate not increasing in memory bandwidth")
	}
	fastDisk := PaperNode()
	fastDisk.StorageWriteBW *= 4
	if Kernel0(fastDisk, wl()).EdgesPerSecond <= Kernel0(slow, wl()).EdgesPerSecond {
		t.Error("K0 rate not increasing in write bandwidth")
	}
}

func TestRatesRoughlyScaleInvariant(t *testing.T) {
	// Edges/second is a per-edge rate; it should vary only mildly with
	// scale (via digit width and radix passes), staying within 2x across
	// the paper's sweep.
	lo := Kernel1(PaperNode(), Workload{Scale: 16})
	hi := Kernel1(PaperNode(), Workload{Scale: 22})
	ratio := lo.EdgesPerSecond / hi.EdgesPerSecond
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("K1 rate ratio scale16/scale22 = %.2f, want within 2x", ratio)
	}
}

func TestParallelSpeedupShape(t *testing.T) {
	h, w := PaperNode(), wl()
	if s := Speedup(h, w, 1); s != 1 {
		t.Errorf("Speedup(1) = %v", s)
	}
	s2, s4 := Speedup(h, w, 2), Speedup(h, w, 4)
	if s2 <= 1 || s4 <= s2 {
		t.Errorf("speedup not initially increasing: s2=%v s4=%v", s2, s4)
	}
	if s2 > 2.01 || s4 > 4.01 {
		t.Errorf("superlinear speedup predicted: s2=%v s4=%v", s2, s4)
	}
	// Scaling must roll off: at absurd p the efficiency collapses.
	s4096 := Speedup(h, w, 4096)
	if s4096/4096 > 0.5 {
		t.Errorf("efficiency at p=4096 = %v, expected communication rolloff", s4096/4096)
	}
}

func TestCommBoundAppears(t *testing.T) {
	h, w := PaperNode(), wl()
	p := CommBoundProcessorCount(h, w, 1<<20)
	if p == 0 {
		t.Fatal("model never becomes communication bound")
	}
	// Once communication bound, the Bound label must say so.
	pred := ParallelKernel3(h, w, p)
	if pred.Bound != "network" {
		t.Errorf("at p=%d bound = %s, want network", p, pred.Bound)
	}
	// Infinite network: never bound.
	inf := h
	inf.NetBandwidth = 1e18
	inf.NetLatency = 0
	if got := CommBoundProcessorCount(inf, w, 1<<12); got != 0 {
		t.Errorf("infinitely fast network reported comm bound at p=%d", got)
	}
}

func TestParallelP1MatchesSerial(t *testing.T) {
	h, w := PaperNode(), wl()
	serial := Kernel3(h, w)
	par := ParallelKernel3(h, w, 1)
	if par.EdgesPerSecond < serial.EdgesPerSecond*0.99 || par.EdgesPerSecond > serial.EdgesPerSecond*1.01 {
		t.Errorf("parallel p=1 %.3g != serial %.3g", par.EdgesPerSecond, serial.EdgesPerSecond)
	}
}

func TestParallelPBelowOne(t *testing.T) {
	pred := ParallelKernel3(PaperNode(), wl(), 0)
	if pred.EdgesPerSecond <= 0 {
		t.Error("p=0 should clamp to 1")
	}
	if p1 := ParallelKernel1(PaperNode(), wl(), 0); p1.EdgesPerSecond <= 0 {
		t.Error("K1 p=0 should clamp to 1")
	}
}

func TestParallelKernel1Shape(t *testing.T) {
	h, w := PaperNode(), wl()
	serial := Kernel1(h, w)
	p1 := ParallelKernel1(h, w, 1)
	// p=1 has no network term and should approximate the serial model.
	ratio := p1.EdgesPerSecond / serial.EdgesPerSecond
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("K1 parallel p=1 ratio %.2f", ratio)
	}
	// Initial scaling, then the all-to-all keeps efficiency bounded.
	r2 := ParallelKernel1(h, w, 2).EdgesPerSecond
	r8 := ParallelKernel1(h, w, 8).EdgesPerSecond
	if r2 <= p1.EdgesPerSecond || r8 <= r2 {
		t.Errorf("K1 not scaling: p1=%.3g p2=%.3g p8=%.3g", p1.EdgesPerSecond, r2, r8)
	}
	if r8/p1.EdgesPerSecond > 8 {
		t.Errorf("K1 superlinear speedup: %.2f at p=8", r8/p1.EdgesPerSecond)
	}
}

func TestParallelKernel1OutOfCoreSpillTerm(t *testing.T) {
	h, w := PaperNode(), wl()
	for _, p := range []int{1, 2, 8} {
		inMem := ParallelKernel1(h, w, p)
		ooc := w
		ooc.RunEdges = 1 << 20
		ext := ParallelKernel1(h, ooc, p)
		// The out-of-core regime adds exactly one 16 B/edge chunk write
		// and one read-back per node on top of the in-memory model.
		spill := w.M() / float64(p) * 16
		want := inMem.Seconds + spill/h.StorageWriteBW + spill/h.StorageReadBW
		if math.Abs(ext.Seconds-want) > 1e-12*want {
			t.Errorf("p=%d: out-of-core %.6g s, want %.6g", p, ext.Seconds, want)
		}
		if ext.EdgesPerSecond >= inMem.EdgesPerSecond {
			t.Errorf("p=%d: spilling did not cost anything", p)
		}
	}
}

func TestCompareRankElapsed(t *testing.T) {
	h, w := PaperNode(), wl()
	cmp, err := CompareRankElapsed(h, w, []float64{0.9, 1.2, 1.0, 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Procs != 4 {
		t.Errorf("procs = %d", cmp.Procs)
	}
	if cmp.MeasuredSeconds != 1.2 || cmp.MeanSeconds != 1.05 {
		t.Errorf("max/mean = %v/%v", cmp.MeasuredSeconds, cmp.MeanSeconds)
	}
	if cmp.Imbalance < 1 {
		t.Errorf("imbalance %v below 1", cmp.Imbalance)
	}
	// prediction() sums its times map, whose iteration order varies run
	// to run, so compare with a relative tolerance.
	want := ParallelKernel3(h, w, 4).Seconds
	if d := cmp.PredictedSeconds - want; d > 1e-9*want || d < -1e-9*want {
		t.Errorf("prediction %v, parallel kernel-3 model %v", cmp.PredictedSeconds, want)
	}
	if cmp.Ratio <= 0 {
		t.Errorf("ratio %v", cmp.Ratio)
	}
	if _, err := CompareRankElapsed(h, w, nil); err == nil {
		t.Error("empty rank times accepted")
	}
	if _, err := CompareRankElapsed(Hardware{}, w, []float64{1}); err == nil {
		t.Error("invalid hardware accepted")
	}
}

// TestKernel0Workers pins K0's two compute terms: sampling divides by
// min(Workers, Cores), and so does formatting in memory, while a
// streaming (RunEdges > 0) run formats on one core; 0 or 1 worker is the
// serial model.
func TestKernel0Workers(t *testing.T) {
	h := PaperNode()
	w := wl().withDefaults()
	m := w.M()
	sample := m * genOpsPerBit * float64(w.Scale) / h.ScalarRate
	format := m * formatOpsPerByte * w.BytesPerEdgeText / h.ScalarRate
	storage := m * w.BytesPerEdgeText / h.StorageWriteBW
	for _, runEdges := range []int{0, 1 << 20} {
		for _, c := range []struct{ workers, cores int }{{0, 1}, {1, 1}, {4, 4}, {16, 16}, {64, 16}} {
			w.Workers, w.RunEdges = c.workers, runEdges
			codecCores := float64(c.cores)
			if runEdges > 0 {
				codecCores = 1
			}
			want := sample/float64(c.cores) + format/codecCores + storage
			if got := Kernel0(h, w).Seconds; math.Abs(got-want) > 1e-12*want {
				t.Errorf("Workers %d RunEdges %d: K0 %.9g s, want %.9g (sampling on %d cores)", c.workers, runEdges, got, want, c.cores)
			}
		}
	}
}

// TestKernel2Workers pins K2's width: its compute and memory terms divide
// by min(Workers, Cores), in memory and out of core alike, and the storage
// term does not; so at Workers 2 on the paper node K2 takes its serial
// time less half of those two terms.
func TestKernel2Workers(t *testing.T) {
	h := PaperNode()
	w := wl().withDefaults()
	m := w.M()
	wide := m*parseOpsPerByte*w.BytesPerEdgeText/h.ScalarRate + m*buildBytesPerEdge/h.MemBandwidth
	serial := Kernel2(h, w).Seconds
	for _, runEdges := range []int{0, 1 << 20} {
		for _, c := range []struct{ workers, cores int }{{0, 1}, {1, 1}, {2, 2}, {16, 16}, {64, 16}} {
			w.Workers, w.RunEdges = c.workers, runEdges
			want := serial - wide + wide/float64(c.cores)
			if got := Kernel2(h, w).Seconds; math.Abs(got-want) > 1e-9*want {
				t.Errorf("Workers %d RunEdges %d: K2 %.9g s, want %.9g (on %d cores)", c.workers, runEdges, got, want, c.cores)
			}
		}
	}
	w.Workers, w.RunEdges = 2, 0
	ratio := Kernel2(h, w).Seconds / serial
	if want := 1 - wide/serial/2; math.Abs(ratio-want) > 1e-12 || ratio >= 1 || ratio <= 0.5 {
		t.Errorf("K2 at Workers 2 over Workers 1: %.6f, want %.6f", ratio, want)
	}
}

// TestKernel1Workers pins K1's parse and format term: it divides by
// min(Workers, Cores) in memory and stays on one core when RunEdges
// streams the files; the sort's memory and the storage terms do not move.
func TestKernel1Workers(t *testing.T) {
	h := PaperNode()
	w := wl().withDefaults()
	m := w.M()
	codec := m * (parseOpsPerByte + formatOpsPerByte) * w.BytesPerEdgeText / h.ScalarRate
	serial := Kernel1(h, w).Seconds
	for _, c := range []struct{ workers, cores int }{{0, 1}, {1, 1}, {4, 4}, {16, 16}, {64, 16}} {
		w.Workers, w.RunEdges = c.workers, 0
		want := serial - codec + codec/float64(c.cores)
		if got := Kernel1(h, w).Seconds; math.Abs(got-want) > 1e-9*want {
			t.Errorf("Workers %d: K1 %.9g s, want %.9g (codec on %d cores)", c.workers, got, want, c.cores)
		}
	}
	w.Workers, w.RunEdges = 16, 1<<20
	if got := Kernel1(h, w).Seconds; got != serial {
		t.Errorf("Workers 16, RunEdges > 0: K1 %.9g s, want the serial %.9g (codec on one core)", got, serial)
	}
}

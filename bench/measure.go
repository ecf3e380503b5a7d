package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// params are one invocation's arguments.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	// tmp is the directory scratch files (edge files, socket paths) go
	// under; it exists and is the caller's to remove.
	tmp string
	// triadCap caps the footprint of the host probe's large triad
	// (1 GiB outside tests).
	triadCap int64
}

// setupReps is how often an untraced run sets up, to report a median
// setup_s.  A traced run sets up once.
const setupReps = 3

// minReps is the fewest timed repetitions of a run, whatever -seconds.
const minReps = 5

// report is everything one run of one workload measured.
type report struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Ops       int                `json:"ops"`
	FailedOps int                `json:"failed_ops"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   []metricReport     `json:"metrics"`
	Kernels   []metricReport     `json:"kernel_rates,omitempty"`
	Host      *hostInfo          `json:"host,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Self      map[string]float64 `json:"self_seconds,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// metricReport is one metric of a report: its definition and the
// summary of its samples.  The median is the metric's value.
type metricReport struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	summary
}

// op counts one repetition and, when err is not nil, its failure, and
// reports whether the repetition passed.
func (r *report) op(err error) bool {
	r.Ops++
	if err == nil {
		return true
	}
	r.FailedOps++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, err.Error())
	}
	return false
}

// giveUp reports that failures are not flakes — the run was cancelled,
// or minReps repetitions have failed — so that a loop stops rather
// than spin on a broken program.
func (r *report) giveUp(ctx context.Context) bool {
	return ctx.Err() != nil || r.FailedOps >= minReps
}

// summaries turns collected samples into a metric list: every metric of
// defs, in order, 0 where the workload gave no samples.
func summaries(defs []metricDef, got metricSet) []metricReport {
	out := make([]metricReport, 0, len(defs))
	for _, d := range defs {
		out = append(out, metricReport{
			Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, summary: summarize(got[d.Name]),
		})
	}
	return out
}

func (r *report) metric(name string) (metricReport, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricReport{}, false
}

// measure runs one workload once: set-up, then timed repetitions for
// p.seconds, closed loop, one at a time.  An error means the benchmark
// could not run at all; failed repetitions are counted in the report.
func measure(ctx context.Context, w workload, p params) (*report, error) {
	r := &report{Workload: w.Name, Why: w.Why, Seed: p.seed, Seconds: p.seconds, Traced: p.trace}
	if p.trace {
		return r, measureTraced(ctx, w, p, r)
	}
	got := metricSet{}
	var s *session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(ctx, p.seed, p.tmp); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		got.add("setup_s", time.Since(t0).Seconds())
	}
	defer s.close()

	for _, rp := range timedLoop(ctx, s, p.seconds, r) {
		got.add("run_s", rp.wall)
		rp.addKernelRates(got)
	}
	got.add("peak_rss_mb", float64(peakRSSBytes())/1e6)
	r.Metrics, r.Kernels = summaries(endToEnd, got), summaries(kernelRates, got)
	return r, nil
}

// timedLoop repeats timed runs until seconds have passed and at least
// minReps were made, counting ops and failures into r, and returns the
// repetitions that passed their check.
func timedLoop(ctx context.Context, s *session, seconds float64, r *report) []rep {
	var reps []rep
	start := time.Now()
	for r.Ops < minReps || time.Since(start).Seconds() < seconds {
		rp, err := s.timedRep(ctx)
		if r.op(err) {
			reps = append(reps, rp)
		} else if r.giveUp(ctx) {
			break
		}
	}
	return reps
}

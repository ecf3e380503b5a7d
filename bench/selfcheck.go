package main

import (
	"context"
	"fmt"
	"io"
)

// worseBy is by how much b is worse than a, as a share of a, for a
// metric whose better direction is given; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// abCheck is one end-to-end metric of one workload compared across two
// runs of the same code.
type abCheck struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	WorseBy  float64 `json:"b_worse_by"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// selfcheck runs the suite twice with one seed — A, then B — and fails
// if any end-to-end median of B is worse than A's by more than the
// metric's bound, in either direction: the two are the same code, so a
// difference beyond the bound means the bound cannot resolve a real
// change of that size.
func selfcheck(ctx context.Context, c cli, stdout, stderr io.Writer) error {
	c.trace = 0
	a, err := runSuite(ctx, c, c.seed, stderr)
	if err != nil {
		return err
	}
	b, err := runSuite(ctx, c, c.seed, stderr)
	if err != nil {
		return err
	}
	out := struct {
		A      *suite    `json:"a"`
		B      *suite    `json:"b"`
		Checks []abCheck `json:"checks"`
		Pass   bool      `json:"pass"`
	}{A: a, B: b, Pass: true}
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, d := range endToEnd {
			ma, _ := ra.metric(d.Name)
			mb, _ := rb.metric(d.Name)
			by := worseBy(d.Better, ma.Median, mb.Median)
			if back := worseBy(d.Better, mb.Median, ma.Median); back > by {
				by = back
			}
			ck := abCheck{Workload: ra.Workload, Metric: d.Name, A: ma.Median, B: mb.Median, WorseBy: by, Bound: d.Bound, OK: by <= d.Bound}
			out.Checks = append(out.Checks, ck)
			out.Pass = out.Pass && ck.OK
		}
	}
	printJSON(stdout, out)
	if !out.Pass {
		return fmt.Errorf("selfcheck: two runs of the same code differ by more than a bound")
	}
	return nil
}

// spreadRow is one end-to-end metric of one workload over several
// seeds: the distance between the quartiles of the runs' values as a
// share of their median, which must stay within the metric's bound
// (setup_s is reported but not held to it).
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	OK       bool      `json:"ok"`
}

// spreadCheck runs every workload under c.spread consecutive seeds,
// one process per run.
func spreadCheck(ctx context.Context, c cli, stdout, stderr io.Writer) error {
	c.trace = 0
	out := struct {
		Seeds []uint64    `json:"seeds"`
		Rows  []spreadRow `json:"rows"`
		Pass  bool        `json:"pass"`
	}{Pass: true}
	for i := 0; i < c.spread; i++ {
		out.Seeds = append(out.Seeds, c.seed+uint64(i))
	}
	for _, w := range workloads {
		values := metricSet{}
		for _, seed := range out.Seeds {
			fmt.Fprintf(stderr, "bench: %s seed %d ...\n", w.Name, seed)
			rep, err := runChild(ctx, c, w.Name, seed, stderr)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			for _, m := range rep.Metrics {
				values.add(m.Name, m.Median)
			}
		}
		for _, d := range endToEnd {
			v := values[d.Name]
			row := spreadRow{Workload: w.Name, Metric: d.Name, Values: v, Median: median(v), Spread: spread(v), Bound: d.Bound}
			row.OK = row.Spread <= d.Bound || d.Name == "setup_s"
			out.Rows = append(out.Rows, row)
			out.Pass = out.Pass && row.OK
		}
	}
	printJSON(stdout, out)
	if !out.Pass {
		return fmt.Errorf("spread: a metric's quartile spread over %d seeds exceeds its bound", c.spread)
	}
	return nil
}

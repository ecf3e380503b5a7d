// Command bench is the repository's benchmark (../BENCHMARK.json): it
// runs one of four workloads through the pipeline's user entrypoints,
// checks every result, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics of an outside-in traced run.
// README.md has the metrics, the workloads and how they interact.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
)

// defaultSeconds is run_seconds of ../BENCHMARK.json.
const defaultSeconds = 15

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// cli are the parsed command-line arguments.
type cli struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	tmp       string
	selfcheck bool
	spread    int
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var c cli
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&c.workload, "workload", "", "workload to run; empty runs all four, each in a fresh process")
	fl.Uint64Var(&c.seed, "seed", 1, "seed of the generated graph (Config.Seed); the same seed gives the same inputs")
	fl.Float64Var(&c.seconds, "seconds", defaultSeconds, "how long one run measures, after set-up")
	fl.IntVar(&c.trace, "trace", 0, "1 runs the traced replay and prints the per-layer metrics instead of the end-to-end ones")
	fl.StringVar(&c.tmp, "tmp", ".bench_build/tmp", "directory for scratch files; a per-process directory is made in it and removed at exit")
	fl.BoolVar(&c.selfcheck, "selfcheck", false, "run the suite twice with one seed and fail if any end-to-end median moves by more than its bound")
	fl.IntVar(&c.spread, "spread", 0, "run every workload under this many consecutive seeds and fail if any end-to-end metric's quartile spread exceeds its bound")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || c.trace < 0 || c.trace > 1 || c.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] | -selfcheck | -spread n")
		return 2
	}
	var err error
	switch {
	case c.selfcheck:
		err = selfcheck(ctx, c, stdout, stderr)
	case c.spread > 0:
		err = spreadCheck(ctx, c, stdout, stderr)
	case c.workload == "":
		var s *suite
		if s, err = runSuite(ctx, c, c.seed, stderr); s != nil {
			printJSON(stdout, s)
		}
	default:
		err = runOne(ctx, c, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// resultLine is the last line of a single-workload run's output, in the
// shape BENCHMARK.json's driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLineOf(rep *report) resultLine {
	line := resultLine{
		Correct: rep.FailedOps == 0, Attempted: rep.Ops, Failed: rep.FailedOps,
		Metrics: make(map[string]resultValue, len(rep.Metrics)),
	}
	for _, m := range rep.Metrics {
		line.Metrics[m.Name] = resultValue{Value: m.Median, Unit: m.Unit}
	}
	return line
}

// runOne measures one workload in this process and prints two lines:
// the full report, then the result line.  Failed repetitions are an
// error after both are printed, so the process exits non-zero.
func runOne(ctx context.Context, c cli, stdout io.Writer) error {
	w, ok := workloadByName(c.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(c.tmp, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// The socket runtime puts its unix sockets under TMPDIR, in this
	// process and in the workers it spawns.  A relative path keeps them
	// inside the checkout and short enough for a socket address.
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return err
	}
	rep, err := measure(ctx, w, params{seed: c.seed, seconds: c.seconds, trace: c.trace == 1, tmp: tmp, triadCap: 1 << 30})
	if err != nil {
		return err
	}
	for _, v := range []any{rep, resultLineOf(rep)} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if rep.FailedOps > 0 {
		return fmt.Errorf("%s: %d of %d repetitions failed their correctness check: %v", w.Name, rep.FailedOps, rep.Ops, rep.Failures)
	}
	return nil
}

func printJSON(w io.Writer, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // the report types hold nothing json cannot encode
	}
	fmt.Fprintf(w, "%s\n", b)
}

// suite is one pass over all four workloads.
type suite struct {
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Workloads []*report `json:"workloads"`
}

// runSuite runs every workload under seed, each in a fresh child
// process so that peak_rss_mb and heap state are the workload's own.
// It returns what it gathered along with the first error.  The span
// lists of traced runs are left out (self_seconds stays); a
// single-workload run prints them.
func runSuite(ctx context.Context, c cli, seed uint64, stderr io.Writer) (*suite, error) {
	s := &suite{Seed: seed, Seconds: c.seconds}
	var first error
	for _, w := range workloads {
		fmt.Fprintf(stderr, "bench: %s seed %d ...\n", w.Name, seed)
		rep, err := runChild(ctx, c, w.Name, seed, stderr)
		if rep != nil {
			rep.Spans = nil
			s.Workloads = append(s.Workloads, rep)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return s, first
}

// runChild re-executes this binary for one workload and parses the
// report line it prints before its result line.
func runChild(ctx context.Context, c cli, name string, seed uint64, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(c.trace), "-tmp", c.tmp)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<30)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		if runErr == nil {
			runErr = fmt.Errorf("child printed no report")
		}
		return nil, runErr
	}
	rep := new(report)
	if err := json.Unmarshal(lines[len(lines)-2], rep); err != nil {
		return nil, fmt.Errorf("child's report line: %w", err)
	}
	return rep, runErr
}

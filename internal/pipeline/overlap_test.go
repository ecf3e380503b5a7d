package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/vfs"
)

// namedFile matches the name of a file the extsort pipeline reads or
// writes: a k0/k1 stripe or a spilled run.
var namedFile = regexp.MustCompile(`(k[01]|tmp/extsort)-[0-9]{4}\.(tsv|bin|packed)`)

// TestOverlapLifecycle drives the overlapped streams (a StripedSource
// decoding ahead, a StripedSink encoding behind, the merge's read-ahead run
// readers) through the extsort pipeline at scale 8 for each codec the
// stripes or spill runs use: a reader that closes before io.EOF, and a
// storage failure injected at every 1/16th of the clean run's I/O bytes.
// Every failure must wrap vfs.ErrInjected and name a file, and after every
// case the helper goroutines are gone and no spill run is left.  The table
// runs again under GOMAXPROCS=1, where the helpers and their callers take
// turns on one thread: the stripe files must still match coldGolden.
func TestOverlapLifecycle(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, format := range []string{"tsv", "bin", "packed"} {
				t.Run(format, func(t *testing.T) { overlapLifecycle(t, format) })
			}
			if procs != 1 {
				return
			}
			for _, format := range []string{"tsv", "bin", "packed"} {
				for _, nfiles := range []int{1, 4} {
					fs := vfs.NewMem()
					cfg := Config{Scale: 12, Seed: 1, NFiles: nfiles, Variant: "extsort", Format: format,
						RunEdges: 5000, FS: fs}
					if _, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K0Generate, K1Sort}); err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("extsort/%s/%d", format, nfiles)
					for _, k := range []string{"k0", "k1"} {
						if got, want := hashFiles(t, fs, k+"-"), coldGolden[key+"/"+k]; got != want {
							t.Errorf("%s/%s under GOMAXPROCS=1: %#016x, golden %#016x", key, k, got, want)
						}
					}
				}
			}
		})
	}
}

func overlapLifecycle(t *testing.T, format string) {
	base := runtime.NumGoroutine()
	cfg := Config{Scale: 8, Seed: 1, NFiles: 2, Variant: "extsort", Format: format, RunEdges: 500}
	clean := vfs.NewMem()
	meter := vfs.NewMetered(clean)
	cfg.FS = meter
	if _, err := ExecuteContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	st := meter.Stats()
	total := st.BytesRead + st.BytesWritten
	settled(t, "clean run", base, clean)

	codec, err := fastio.CodecByName(format)
	if err != nil {
		t.Fatal(err)
	}
	src, err := fastio.NewStripedSource(clean, "k1", codec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ReadEdges(edge.NewList(0), 1); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("close before EOF: %v", err)
	}
	if _, err := src.ReadEdges(edge.NewList(0), 1); err == nil {
		t.Error("read after Close succeeded")
	}
	settled(t, "close before EOF", base, clean)

	for i := int64(0); i < 16; i++ {
		budget := total * i / 16
		mem := vfs.NewMem()
		cfg.FS = vfs.NewFaulty(mem, budget)
		_, err := ExecuteContext(context.Background(), cfg)
		switch {
		case !errors.Is(err, vfs.ErrInjected):
			t.Errorf("budget %d/16 of %d B: err = %v, want the injected failure", i, total, err)
		case !namedFile.MatchString(err.Error()):
			t.Errorf("budget %d/16 of %d B: %v names no file", i, total, err)
		}
		settled(t, fmt.Sprintf("budget %d/16", i), base, mem)
	}
}

// settled fails unless the goroutine count drops back to base and fs holds
// no spilled run.
func settled(t *testing.T, what string, base int, fs vfs.FS) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "tmp/extsort") {
			t.Errorf("%s: spill run %s left behind", what, name)
		}
	}
	waitGoroutines(t, what, func() bool { return runtime.NumGoroutine() <= base })
}

// TestExtsortCorruptStripeNamed: a k1 stripe whose last byte has its
// continuation bit flipped ends in a torn varint, which fails kernel 2
// with an error that names the stripe.
func TestExtsortCorruptStripeNamed(t *testing.T) {
	fs := vfs.NewMem()
	cfg := Config{Scale: 8, Seed: 1, Variant: "extsort", Format: "packed", RunEdges: 500, FS: fs}
	if _, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K0Generate, K1Sort}); err != nil {
		t.Fatal(err)
	}
	const name = "k1-0000.packed"
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x80
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteKernelsContext(context.Background(), cfg, []Kernel{K2Filter})
	if err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("kernel 2 over a corrupt stripe: err = %v, want it to name %s", err, name)
	}
}

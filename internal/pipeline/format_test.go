package pipeline

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// The edge-file codecs are transport, never semantics: every result a run
// reports — the rank vector, the communication record, the spill run
// count — must be bit-for-bit invariant in Config.Format.  These are the
// acceptance properties of the format plumbing.

func TestDefaultFormat(t *testing.T) {
	if got := DefaultFormat("coo"); got != "naivetsv" {
		t.Errorf("DefaultFormat(coo) = %q", got)
	}
	for _, v := range []string{"csr", "extsort", "dist"} {
		if got := DefaultFormat(v); got != "tsv" {
			t.Errorf("DefaultFormat(%s) = %q", v, got)
		}
	}
}

func TestFormatNameResolution(t *testing.T) {
	if got := FormatName(Config{Variant: "csr"}); got != "tsv" {
		t.Errorf("FormatName(csr) = %q", got)
	}
	if got := FormatName(Config{Variant: "coo", Format: "packed"}); got != "packed" {
		t.Errorf("FormatName(coo, packed) = %q", got)
	}
}

func TestConfigValidateRejectsUnknownFormat(t *testing.T) {
	cfg := Config{Scale: 5, Variant: "csr", Format: "zstd"}
	if err := cfg.Validate(); err == nil {
		t.Error("unknown Format accepted")
	}
}

// TestSerialVariantsFormatInvariant runs each single-process variant under
// every codec and requires identical ranks and matrix statistics.
func TestSerialVariantsFormatInvariant(t *testing.T) {
	for _, variant := range []string{"csr", "coo", "columnar", "extsort"} {
		t.Run(variant, func(t *testing.T) {
			var base *Result
			var baseFormat string
			for _, format := range []string{"tsv", "bin", "packed"} {
				cfg := Config{
					Scale: 7, EdgeFactor: 8, Seed: 3, NFiles: 3,
					Variant: variant, Format: format, KeepRank: true,
					FS: vfs.NewMem(), RunEdges: 200,
				}
				res, err := ExecuteContext(context.Background(), cfg)
				if err != nil {
					t.Fatalf("format %s: %v", format, err)
				}
				if base == nil {
					base, baseFormat = res, format
					continue
				}
				if res.NNZ != base.NNZ || res.MatrixMass != base.MatrixMass {
					t.Fatalf("format %s: matrix diverges from %s", format, baseFormat)
				}
				for i := range base.Rank {
					if res.Rank[i] != base.Rank[i] {
						t.Fatalf("format %s: rank[%d] diverges from %s", format, i, baseFormat)
					}
				}
			}
		})
	}
}

// TestDistFormatInvariant is the acceptance property: ranks and the
// communication record bit-for-bit identical across tsv/bin/packed for
// p ∈ {1,2,3,5,8} on goroutine ranks, with kernel 1 in memory (dist) and
// out of core (distext, see smallCfg).
func TestDistFormatInvariant(t *testing.T) {
	for _, variant := range []string{"dist", "distext"} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/goroutine/p%d", variant, p), func(t *testing.T) {
				var base *Result
				var baseFormat string
				for _, format := range []string{"tsv", "bin", "packed"} {
					cfg := smallCfg(variant)
					cfg.Seed, cfg.NFiles, cfg.Format = 3, 2, format
					cfg.Workers, cfg.FS = p, vfs.NewMem()
					res, err := ExecuteContext(context.Background(), cfg)
					if err != nil {
						t.Fatalf("format %s: %v", format, err)
					}
					if (res.Spill != nil) != (variant == "distext") {
						t.Fatalf("format %s: spill record %+v", format, res.Spill)
					}
					if base == nil {
						base, baseFormat = res, format
						continue
					}
					for i := range base.Rank {
						if res.Rank[i] != base.Rank[i] {
							t.Fatalf("format %s: rank[%d] diverges from %s", format, i, baseFormat)
						}
					}
					if (res.Comm == nil) != (base.Comm == nil) {
						t.Fatalf("format %s: comm presence diverges from %s", format, baseFormat)
					}
					if res.Comm != nil && *res.Comm != *base.Comm {
						t.Fatalf("format %s: comm %+v diverges from %s %+v", format, *res.Comm, baseFormat, *base.Comm)
					}
					if variant == "distext" && res.Spill.Runs != base.Spill.Runs {
						t.Fatalf("format %s: %d spill runs, %s had %d", format, res.Spill.Runs, baseFormat, base.Spill.Runs)
					}
				}
			})
		}
	}
}

// TestSpillAccountingByFormat pins the spill codec rule: tsv and bin
// runs spill identical fixed-width binary bytes (16 per edge written and
// read), while a packed run spills measurably less.
func TestSpillAccountingByFormat(t *testing.T) {
	spill := map[string]*SpillStats{}
	for _, format := range []string{"tsv", "bin", "packed"} {
		cfg := Config{
			Scale: 8, EdgeFactor: 8, Seed: 3, Variant: "extsort",
			Format: format, RunEdges: 300, FS: vfs.NewMem(),
		}
		res, err := ExecuteContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if res.Spill == nil {
			t.Fatalf("format %s: no spill record", format)
		}
		spill[format] = res.Spill
	}
	m := int64(8 << 8)
	for _, f := range []string{"tsv", "bin"} {
		s := spill[f]
		if s.Codec != "bin" {
			t.Errorf("%s run spilled with codec %q, want bin", f, s.Codec)
		}
		if s.BytesWritten != 16*m || s.BytesRead != 16*m {
			t.Errorf("%s run spill bytes = %d/%d, want %d both ways", f, s.BytesWritten, s.BytesRead, 16*m)
		}
	}
	p := spill["packed"]
	if p.Codec != "packed" {
		t.Errorf("packed run spilled with codec %q", p.Codec)
	}
	if p.BytesWritten >= spill["bin"].BytesWritten {
		t.Errorf("packed spill %d B >= bin spill %d B", p.BytesWritten, spill["bin"].BytesWritten)
	}
	if p.Runs != spill["bin"].Runs {
		t.Errorf("packed run count %d != bin run count %d", p.Runs, spill["bin"].Runs)
	}
}

// TestValidateFormats: the validation suite passes under every codec, and
// its detection step refuses a directory whose stale stripes name a
// different format than the configuration — the misread it exists to stop.
func TestValidateFormats(t *testing.T) {
	for _, format := range []string{"tsv", "bin", "packed"} {
		rep, err := Validate(Config{Scale: 6, EdgeFactor: 4, Seed: 1, Variant: "csr", Format: format, FS: vfs.NewMem()})
		if err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if !rep.Passed {
			t.Fatalf("format %s: validation failed: %+v", format, rep)
		}
	}
	// Reuse one FS across formats: the tsv run's stale k0 stripes survive
	// the bin run's kernel 0 (different extensions, nothing overwrites),
	// so detection sees tsv stripes while the config says bin — an error,
	// not a misparse.
	fs := vfs.NewMem()
	if _, err := Validate(Config{Scale: 6, EdgeFactor: 4, Seed: 1, Variant: "csr", Format: "tsv", FS: fs}); err != nil {
		t.Fatalf("baseline tsv validation: %v", err)
	}
	_, err := Validate(Config{Scale: 6, EdgeFactor: 4, Seed: 1, Variant: "csr", Format: "bin", FS: fs})
	if err == nil {
		t.Fatal("validation accepted a directory holding stripes in a conflicting format")
	}
}

package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseKernels(t *testing.T) {
	ks, err := parseKernels("0123")
	if err != nil || len(ks) != 4 {
		t.Fatalf("parseKernels(0123) = %v, %v", ks, err)
	}
	if ks[0] != core.K0Generate || ks[3] != core.K3PageRank {
		t.Errorf("kernel order: %v", ks)
	}
	ks, err = parseKernels("23")
	if err != nil || len(ks) != 2 || ks[0] != core.K2Filter {
		t.Errorf("parseKernels(23) = %v, %v", ks, err)
	}
	if _, err := parseKernels("4"); err == nil {
		t.Error("kernel 4 accepted")
	}
	if _, err := parseKernels(""); err == nil {
		t.Error("empty kernels accepted")
	}
	if _, err := parseKernels("0x"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestVariantList(t *testing.T) {
	all := core.Variants()
	for _, v := range []string{"all", ""} {
		if got := variantList(v); len(got) != len(all) || len(got) < 2 {
			t.Errorf("variantList(%q) = %v, want every registered variant %v", v, got, all)
		}
	}
	if got := variantList("csr"); len(got) != 1 || got[0] != "csr" {
		t.Errorf("variantList(csr) = %v", got)
	}
	if got := variantList("csr,extsort"); len(got) != 2 || got[1] != "extsort" {
		t.Errorf("variantList(csr,extsort) = %v", got)
	}
}

func TestSameBits(t *testing.T) {
	v := []float64{0.25, 1e-300, 3}
	flipped := []float64{0.25, math.Float64frombits(math.Float64bits(1e-300) ^ 1), 3}
	for _, c := range []struct {
		name string
		a, b []float64
		want bool
	}{
		{"equal", v, []float64{0.25, 1e-300, 3}, true},
		{"both empty", nil, []float64{}, true},
		{"first longer", append(v[:3:3], 0), v, false},
		{"second longer", v, append(v[:3:3], 0), false},
		{"one bit", v, flipped, false},
		{"-0 vs +0", []float64{math.Copysign(0, -1)}, []float64{0}, false},
	} {
		if got := sameBits(c.a, c.b); got != c.want {
			t.Errorf("%s: sameBits = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDocsNameOnlyDefinedFlags: every prbench command line in the docs and
// CI names only flags prbench defines, and its -variant list only
// registered variants, so a deleted flag or variant cannot live on in a
// doc.
func TestDocsNameOnlyDefinedFlags(t *testing.T) {
	uses, variants := 0, 0
	for _, doc := range []string{"README.md", "DESIGN.md", "examples/README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range docCommands(string(b), "prbench") {
			fields := strings.Fields(cmd)
			for i, field := range fields {
				if !strings.HasPrefix(field, "-") {
					continue
				}
				name, value, hasValue := strings.Cut(strings.TrimLeft(field, "-"), "=")
				uses++
				if flag.CommandLine.Lookup(name) == nil {
					t.Errorf("%s: %q names -%s, which prbench does not define", doc, cmd, name)
				}
				if name != "variant" {
					continue
				}
				if !hasValue && i+1 < len(fields) {
					value = fields[i+1]
				}
				for _, v := range strings.Split(value, ",") {
					variants++
					if v != "all" && !slices.Contains(core.Variants(), v) {
						t.Errorf("%s: %q names variant %q, which is not registered (have %v)", doc, cmd, v, core.Variants())
					}
				}
			}
		}
	}
	if uses < 10 || variants < 5 {
		t.Fatalf("found only %d flags and %d variants in the docs' prbench command lines; the scan is broken", uses, variants)
	}
}

// docCommands returns the argument lists of the commands named cmd in a
// doc: each `go run ./cmd/<cmd> …` up to the end of its line or a shell
// operator, and each inline code span holding a whole `<cmd> -…` command.
func docCommands(doc, cmd string) []string {
	var out []string
	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`go run \./cmd/` + cmd + `\b([^\n#>|;&` + "`" + `]*)`),
		regexp.MustCompile("`(?:go run \\./cmd/)?" + cmd + `(\s+-[^` + "`" + `]*)` + "`"),
	} {
		for _, m := range re.FindAllStringSubmatch(doc, -1) {
			out = append(out, m[1])
		}
	}
	return out
}

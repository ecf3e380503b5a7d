package pipeline

import (
	"strings"
	"testing"
)

func TestValidateAllVariantsPass(t *testing.T) {
	for _, name := range sweepLabels() {
		t.Run(name, func(t *testing.T) {
			cfg := smallCfg(name)
			rep, err := Validate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed {
				for _, c := range rep.Checks {
					if !c.Passed {
						t.Errorf("%s (%s) failed: %s", c.ID, c.Name, c.Detail)
					}
				}
			}
			// Small scale: all six checks including the eigen check.
			if len(rep.Checks) != 6 {
				t.Errorf("ran %d checks, want 6 (incl. eigen at small N)", len(rep.Checks))
			}
		})
	}
}

func TestValidateAlternativeGenerators(t *testing.T) {
	for _, gen := range []GeneratorKind{GenPPL, GenER} {
		cfg := smallCfg("csr")
		cfg.Generator = gen
		rep, err := Validate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Checks {
			// V3's collision expectation may not hold for ER/PPL at tiny
			// scales, but mass conservation must.
			if !c.Passed && c.ID != "V3" {
				t.Errorf("%s/%s: %s failed: %s", gen, c.ID, c.Name, c.Detail)
			}
			if c.ID == "V3" && !c.Passed && !strings.Contains(c.Detail, "nnz") {
				t.Errorf("%s: V3 failed for a non-collision reason: %s", gen, c.Detail)
			}
		}
	}
}

func TestValidateCheckIDsOrdered(t *testing.T) {
	rep, err := Validate(smallCfg("csr"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"V1", "V2", "V3", "V4", "V5", "V6"}
	for i, c := range rep.Checks {
		if c.ID != want[i] {
			t.Errorf("check %d = %s, want %s", i, c.ID, want[i])
		}
		if c.Detail == "" || c.Name == "" {
			t.Errorf("%s missing name/detail", c.ID)
		}
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	if _, err := Validate(Config{Scale: -1}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestValidateSkipsEigenAtLargeN(t *testing.T) {
	cfg := Config{Scale: 12, EdgeFactor: 4, Seed: 3, Variant: "csr"} // N = 4096 > 2048
	rep, err := Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if c.ID == "V6" {
			t.Error("eigen check ran at N=4096")
		}
	}
	if len(rep.Checks) != 5 {
		t.Errorf("expected 5 checks, got %d", len(rep.Checks))
	}
	if !rep.Passed {
		t.Error("large-N validation failed")
	}
}

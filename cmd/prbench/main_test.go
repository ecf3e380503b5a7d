package main

import (
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

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("1,2, 8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseIntList(1,2, 8) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "a", "1,,2"} {
		if _, err := parseIntList(bad); err == nil {
			t.Errorf("parseIntList(%q) accepted", bad)
		}
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

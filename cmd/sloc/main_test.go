package main

import (
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
)

// TestTableListsEveryVariantOnce: Table I has one row per variant file,
// and every registered variant is in exactly one row — a file that
// registers several says so.
func TestTableListsEveryVariantOnce(t *testing.T) {
	rows, err := tableRows(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	labels := map[string]string{}
	for _, r := range rows {
		if r.sloc <= 0 {
			t.Errorf("%s: %d source lines", r.file, r.sloc)
		}
		labels[r.file] = r.label()
		for _, v := range r.variants {
			seen[v]++
		}
	}
	names := pipeline.VariantNames()
	for _, v := range names {
		if seen[v] != 1 {
			t.Errorf("variant %s is in %d rows, want 1", v, seen[v])
		}
	}
	if len(seen) != len(names) {
		t.Errorf("rows name %d variants, the registry has %d", len(seen), len(names))
	}
	if got := labels["dist"]; got != "dist (dist, distgo)" {
		t.Errorf("dist row labelled %q", got)
	}
	if got := labels["csr"]; got != "csr" {
		t.Errorf("csr row labelled %q", got)
	}
}

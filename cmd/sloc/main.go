// Command sloc reproduces the paper's Table I ("Source lines of code"):
// it counts non-blank, non-comment Go source lines of each implementation
// variant's file.  The paper's table compares the C++/Python/Pandas/
// Matlab/Octave/Julia serial codes (494/162/162/102/102/162 lines); here
// each variant file plays the role of one language implementation.  A
// file that registers several variants is one row naming them all —
// "dist (dist, distgo)" — so every registered variant appears once.
//
//	sloc -root .
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/results"
)

func main() {
	var (
		root   = flag.String("root", ".", "repository root")
		format = flag.String("format", "table", "output format: table, csv, markdown")
	)
	flag.Parse()

	rows, err := tableRows(*root)
	if err != nil {
		fatal(err)
	}
	t := results.NewTable("Table I. Source lines of code (per implementation variant)",
		"Variant", "Source Lines of Code")
	for _, r := range rows {
		t.AddRow(r.label(), fmt.Sprintf("%d", r.sloc))
	}
	switch *format {
	case "csv":
		fmt.Print(t.CSV())
	case "markdown":
		fmt.Print(t.Markdown())
	default:
		fmt.Print(t.Plain())
	}
}

// row is one variant file: its name stem, the registered variants whose
// type it declares, and its source lines.
type row struct {
	file     string
	variants []string
	sloc     int
}

// label names the row by its file, plus its variants when they are not
// just the file's namesake.
func (r row) label() string {
	if len(r.variants) == 1 && r.variants[0] == r.file {
		return r.file
	}
	return fmt.Sprintf("%s (%s)", r.file, strings.Join(r.variants, ", "))
}

// tableRows counts every internal/pipeline/variant_*.go file under root
// and assigns each registered variant to the file declaring its type.
func tableRows(root string) ([]row, error) {
	dir := filepath.Join(root, "internal", "pipeline")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byType := map[string][]string{}
	for _, name := range pipeline.VariantNames() {
		v, err := pipeline.Lookup(name)
		if err != nil {
			return nil, err
		}
		typ := reflect.TypeOf(v).Name()
		byType[typ] = append(byType[typ], name)
	}
	var rows []row
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "variant_") || !strings.HasSuffix(name, ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		r := row{file: strings.TrimSuffix(strings.TrimPrefix(name, "variant_"), ".go"), sloc: countSLOC(src)}
		for typ, variants := range byType {
			if bytes.Contains(src, []byte("type "+typ+" ")) {
				r.variants = append(r.variants, variants...)
				delete(byType, typ)
			}
		}
		if len(r.variants) == 0 {
			return nil, fmt.Errorf("%s declares no registered variant", name)
		}
		slices.Sort(r.variants)
		rows = append(rows, r)
	}
	if len(byType) > 0 {
		return nil, fmt.Errorf("no variant file under %s declares %v", dir, byType)
	}
	return rows, nil
}

// countSLOC counts non-blank lines that are not pure comment lines.
// Block comments are tracked coarsely (a /* ... */ spanning lines counts
// as comment lines), which matches how the paper's SLOC figures were
// produced (simple line filters).
func countSLOC(src []byte) int {
	n := 0
	inBlock := false
	sc := bufio.NewScanner(bytes.NewReader(src))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sloc:", err)
	os.Exit(1)
}

package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyDefinedFlags: every prreport command line in the docs
// and CI names only flags prreport defines, so a deleted flag cannot live
// on in a doc.
func TestDocsNameOnlyDefinedFlags(t *testing.T) {
	uses := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "examples/README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range docCommands(string(b), "prreport") {
			for _, field := range strings.Fields(cmd) {
				if !strings.HasPrefix(field, "-") {
					continue
				}
				name, _, _ := strings.Cut(strings.TrimLeft(field, "-"), "=")
				uses++
				if flag.CommandLine.Lookup(name) == nil {
					t.Errorf("%s: %q names -%s, which prreport does not define", doc, cmd, name)
				}
			}
		}
	}
	if uses < 4 {
		t.Fatalf("found only %d flags in the docs' prreport command lines; the scan is broken", uses)
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

package results

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("Table I. SLOC", "Language", "Lines")
	t.AddRow("C++", "494")
	t.AddRow("Python", "162")
	return t
}

func TestTablePlain(t *testing.T) {
	out := sampleTable().Plain()
	if !strings.Contains(out, "Table I. SLOC") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "C++") || !strings.Contains(out, "494") {
		t.Error("missing cells")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Errorf("plain render has %d lines:\n%s", len(lines), out)
	}
	// Alignment: all data lines equal length.
	if len(lines[1]) != len(lines[3]) {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	out := sampleTable().CSV()
	want := "Language,Lines\nC++,494\nPython,162\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`has,comma`, `has"quote`)
	out := tb.CSV()
	if !strings.Contains(out, `"has,comma"`) || !strings.Contains(out, `"has""quote"`) {
		t.Errorf("CSV quoting wrong: %q", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	out := sampleTable().Markdown()
	if !strings.Contains(out, "| Language | Lines |") {
		t.Errorf("markdown header missing: %s", out)
	}
	if !strings.Contains(out, "|---|---|") {
		t.Errorf("markdown separator missing: %s", out)
	}
	if !strings.Contains(out, "| C++ | 494 |") {
		t.Errorf("markdown row missing: %s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1")                // short
	tb.AddRow("1", "2", "3", "4") // long
	out := tb.CSV()
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("want a header and two rows: %q", out)
	}
	if !strings.Contains(out, "1,,\n") {
		t.Errorf("short row not padded: %q", out)
	}
	if strings.Contains(out, "4") {
		t.Errorf("extra cell not dropped: %q", out)
	}
}

func sampleFigure() *Figure {
	f := &Figure{Title: "Figure 7", XLabel: "number of edges", YLabel: "edges per second"}
	f.Add(Series{Label: "csr", X: []float64{1e6, 1e7, 1e8}, Y: []float64{1e8, 9e7, 8e7}})
	f.Add(Series{Label: "coo", X: []float64{1e6, 1e7, 1e8}, Y: []float64{2e7, 1.8e7, 1.5e7}})
	return f
}

func TestFigureCSV(t *testing.T) {
	out := sampleFigure().CSV()
	if !strings.HasPrefix(out, "series,number of edges,edges per second\n") {
		t.Errorf("CSV header: %q", out)
	}
	if !strings.Contains(out, "csr,1e+06,1e+08\n") {
		t.Errorf("CSV data row missing:\n%s", out)
	}
	if strings.Count(out, "\n") != 7 {
		t.Errorf("CSV should have 1 header + 6 data lines:\n%s", out)
	}
}

func TestFigureASCII(t *testing.T) {
	out := sampleFigure().ASCII(60, 15)
	if !strings.Contains(out, "Figure 7") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "A = csr") || !strings.Contains(out, "B = coo") {
		t.Error("missing legend")
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Error("missing data marks")
	}
	if !strings.Contains(out, "log-log") {
		t.Error("missing axis annotation")
	}
}

func TestFigureASCIIEmpty(t *testing.T) {
	f := &Figure{Title: "empty"}
	out := f.ASCII(40, 10)
	if !strings.Contains(out, "no positive data") {
		t.Errorf("empty figure render: %q", out)
	}
	// Zero/negative values skipped without panic.
	f.Add(Series{Label: "z", X: []float64{0, -1}, Y: []float64{1, 2}})
	out = f.ASCII(40, 10)
	if !strings.Contains(out, "no positive data") {
		t.Errorf("nonpositive-only figure: %q", out)
	}
}

func TestFigureASCIIDegenerateRange(t *testing.T) {
	f := &Figure{Title: "point"}
	f.Add(Series{Label: "p", X: []float64{100}, Y: []float64{100}})
	out := f.ASCII(40, 10)
	if !strings.Contains(out, "A") {
		t.Errorf("single point not plotted:\n%s", out)
	}
}

func TestFigureASCIIMinimumSize(t *testing.T) {
	out := sampleFigure().ASCII(1, 1) // clamped to minimums
	if len(out) == 0 {
		t.Error("tiny plot produced nothing")
	}
}

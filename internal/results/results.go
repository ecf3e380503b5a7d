// Package results renders benchmark output as the paper's tables and
// figures: aligned plain-text tables, CSV, markdown, and log-log ASCII
// scatter plots that visually regenerate Figures 4–7 in a terminal.
package results

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	// Title is printed above the table.
	Title string
	// Columns are the header labels.
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells render empty, extra cells are
// dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Plain renders the table with aligned columns.
func (t *Table) Plain() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures

// Series is one labeled line of a figure.
type Series struct {
	// Label names the series (e.g. an implementation variant).
	Label string
	// X and Y are the data points, parallel slices.
	X, Y []float64
}

// Figure reproduces one of the paper's log-log performance plots.
type Figure struct {
	// Title, XLabel and YLabel annotate the plot.
	Title  string
	XLabel string
	YLabel string
	// Series holds the plotted lines.
	Series []Series
}

// Add appends a series.
func (f *Figure) Add(s Series) { f.Series = append(f.Series, s) }

// CSV renders the figure data in long form: series,x,y.
func (f *Figure) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, []string{"series", f.XLabel, f.YLabel})
	for _, s := range f.Series {
		for i := range s.X {
			writeCSVRow(&b, []string{s.Label, formatG(s.X[i]), formatG(s.Y[i])})
		}
	}
	return b.String()
}

func formatG(v float64) string { return fmt.Sprintf("%.6g", v) }

// ASCII renders the figure as a log-log scatter plot of the given size,
// one letter per series, with a legend — the terminal rendition of the
// paper's Figures 4–7.  Non-positive values are skipped (log scale).
func (f *Figure) ASCII(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for i := range s.X {
			if s.X[i] <= 0 || s.Y[i] <= 0 {
				continue
			}
			lx, ly := math.Log10(s.X[i]), math.Log10(s.Y[i])
			minX, maxX = math.Min(minX, lx), math.Max(maxX, lx)
			minY, maxY = math.Min(minY, ly), math.Max(maxY, ly)
		}
	}
	var b strings.Builder
	if f.Title != "" {
		fmt.Fprintf(&b, "%s\n", f.Title)
	}
	if math.IsInf(minX, 1) {
		b.WriteString("(no positive data)\n")
		return b.String()
	}
	// Pad degenerate ranges.
	if maxX-minX < 1e-9 {
		minX, maxX = minX-0.5, maxX+0.5
	}
	if maxY-minY < 1e-9 {
		minY, maxY = minY-0.5, maxY+0.5
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		mark := byte('A' + si%26)
		for i := range s.X {
			if s.X[i] <= 0 || s.Y[i] <= 0 {
				continue
			}
			cx := int((math.Log10(s.X[i]) - minX) / (maxX - minX) * float64(width-1))
			cy := int((math.Log10(s.Y[i]) - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = mark
		}
	}
	topLabel := fmt.Sprintf("1e%.1f", maxY)
	botLabel := fmt.Sprintf("1e%.1f", minY)
	margin := len(topLabel)
	if len(botLabel) > margin {
		margin = len(botLabel)
	}
	for r := range grid {
		label := strings.Repeat(" ", margin)
		if r == 0 {
			label = fmt.Sprintf("%*s", margin, topLabel)
		}
		if r == height-1 {
			label = fmt.Sprintf("%*s", margin, botLabel)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s  %s%s\n", strings.Repeat(" ", margin),
		fmt.Sprintf("1e%.1f", minX),
		fmt.Sprintf("%*s", width-8, fmt.Sprintf("1e%.1f", maxX)))
	fmt.Fprintf(&b, "%s  x: %s, y: %s (log-log)\n", strings.Repeat(" ", margin), f.XLabel, f.YLabel)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "%s  %c = %s\n", strings.Repeat(" ", margin), 'A'+si%26, s.Label)
	}
	return b.String()
}

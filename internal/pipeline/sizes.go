package pipeline

import "fmt"

// BytesPerEdgeStated is the paper's stated Table II assumption, "16 bytes
// per edge" (two 8-byte vertex labels).
const BytesPerEdgeStated = 16

// BytesPerEdgePublished is the bytes-per-edge that actually reproduces the
// published Table II numbers.  The paper's text says 16 bytes per edge, but
// every printed memory figure (25MB at scale 16 through 1.6GB at scale 22)
// equals M · 24 bytes in decimal units — consistent with two labels plus a
// value or index word.  We reproduce the published numbers by default;
// DESIGN.md §1 records the discrepancy.
const BytesPerEdgePublished = 24

// SizeRow is one row of the paper's Table II ("Benchmark run sizes").
type SizeRow struct {
	// Scale is the Graph500 scale factor.
	Scale int
	// MaxVertices is N = 2^Scale.
	MaxVertices uint64
	// MaxEdges is M = EdgeFactor · N.
	MaxEdges uint64
	// MemoryBytes is the approximate edge-data footprint.
	MemoryBytes uint64
}

// SizeTable computes Table II rows for the given scales.  Zero edgeFactor
// selects the paper's k = 16; zero bytesPerEdge selects
// BytesPerEdgePublished.
func SizeTable(scales []int, edgeFactor, bytesPerEdge int) []SizeRow {
	if edgeFactor == 0 {
		edgeFactor = 16
	}
	if bytesPerEdge == 0 {
		bytesPerEdge = BytesPerEdgePublished
	}
	rows := make([]SizeRow, len(scales))
	for i, s := range scales {
		n := uint64(1) << uint(s)
		m := uint64(edgeFactor) * n
		rows[i] = SizeRow{Scale: s, MaxVertices: n, MaxEdges: m, MemoryBytes: m * uint64(bytesPerEdge)}
	}
	return rows
}

// PaperScales are the scale factors evaluated in the paper (Table II,
// Figures 4–7).
var PaperScales = []int{16, 17, 18, 19, 20, 21, 22}

// HumanBytes renders a byte count in the paper's Table II style: decimal
// units, truncated (25MB, 402MB, 1.6GB).
func HumanBytes(b uint64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.1fGB", float64(b/1e8)/10) // truncate to 0.1GB
	case b >= 1e6:
		return fmt.Sprintf("%dMB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%dKB", b/1e3)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// HumanCount renders a count in the paper's Table II style: decimal units,
// truncated (65K, 131K, 1M, 67M).
func HumanCount(c uint64) string {
	switch {
	case c >= 1e9:
		return fmt.Sprintf("%dG", c/1e9)
	case c >= 1e6:
		return fmt.Sprintf("%dM", c/1e6)
	case c >= 1e3:
		return fmt.Sprintf("%dK", c/1e3)
	default:
		return fmt.Sprintf("%d", c)
	}
}

package pipeline

import "repro/internal/sparse"

// FilterStats reports what kernel 2's filtering removed.
type FilterStats = sparse.FilterStats

// ApplyKernel2Filter performs the filtering and normalization steps of
// kernel 2 on a freshly built counting adjacency matrix, in place, on the
// caller's goroutine (sparse.CSR.Kernel2Filter at width 1), and returns
// the filtering statistics.
func ApplyKernel2Filter(a *sparse.CSR) FilterStats { return a.Kernel2Filter(1) }

package pipeline

// The csr variant is the hand-optimized implementation, the analogue of the
// paper's C++ code: custom TSV formatting/parsing, LSD radix sort, a
// streaming CSR build from the sorted files, and the gather (transpose)
// PageRank engine on a Config.Workers-wide team.

import (
	"repro/internal/fastio"
	"repro/internal/xsort"
)

func init() { Register(csrVariant{}) }

type csrVariant struct{}

// Name implements Variant.
func (csrVariant) Name() string { return "csr" }

// Description implements Variant.
func (csrVariant) Description() string {
	return "optimized: custom TSV codec, radix sort, CSR build, gather PageRank (analogue of the paper's C++)"
}

// Kernel0 implements Variant.
func (csrVariant) Kernel0(r *Run) error {
	return generateEdges(r)
}

// Kernel1 implements Variant.
func (csrVariant) Kernel1(r *Run) error {
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	xsort.RadixInto(l, r.Cfg.SortEndVertices, nil)
	return fastio.WriteStriped(r.FS, "k1", r.Codec(), r.Cfg.NFiles, l)
}

// Kernel2 implements Variant.
func (csrVariant) Kernel2(r *Run) error { return buildMatrix(r) }

// Kernel3 implements Variant.
func (csrVariant) Kernel3(r *Run) error { return gatherKernel3(r) }

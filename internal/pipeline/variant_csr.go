package pipeline

// The csr variant is the hand-optimized implementation, the analogue of the
// paper's C++ code: custom TSV formatting/parsing, kernel 1's radix sort
// (sortKernel1), a streaming CSR build from the sorted files, and the
// gather (transpose) PageRank engine on a Config.Workers-wide team.  It is
// also the paper's parallel decomposition on one node: kernel 0 samples
// and shuffles, kernel 1 sorts and kernel 3 multiplies Config.Workers wide,
// with the bits of one worker.

func init() { Register(csrVariant{}) }

type csrVariant struct{}

// Name implements Variant.
func (csrVariant) Name() string { return "csr" }

// Description implements Variant.
func (csrVariant) Description() string {
	return "optimized: custom TSV codec, radix sort, CSR build, gather PageRank, Config.Workers wide (analogue of the paper's C++ and its parallel decomposition)"
}

// Kernel0 implements Variant.
func (csrVariant) Kernel0(r *Run) error {
	return generateEdges(r)
}

// Kernel1 implements Variant.
func (csrVariant) Kernel1(r *Run) error {
	return sortKernel1(r, r.Cfg.RunEdges, r.Cfg.SortEndVertices)
}

// Kernel2 implements Variant.
func (csrVariant) Kernel2(r *Run) error { return buildMatrix(r) }

// Kernel3 implements Variant.
func (csrVariant) Kernel3(r *Run) error { return gatherKernel3(r) }

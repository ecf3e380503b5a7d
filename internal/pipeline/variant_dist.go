package pipeline

// The dist variants run the pipeline through the distributed-memory
// runtime of internal/dist: kernel 1 is the splitter-based sample sort,
// kernels 2 and 3 use the 1D row-block decomposition with metered
// collectives, on goroutine ranks or, with Config.DistMode "socket", on
// worker processes.  A positive Config.RunEdges takes kernel 1 out of
// core: each rank spills sorted runs of at most RunEdges edges to the
// pipeline's storage and merges its bucket from them (DESIGN.md §6) — the
// composition the paper's §IV out-of-core requirement and §V parallel
// analysis jointly demand.  Results are identical to the serial variants
// — the sort bit-for-bit, the matrix bit-for-bit, the rank vector to
// ~1e-12 — and identical between the two modes and in or out of core
// bit-for-bit, which is exactly the property the paper's §V analysis
// assumes when it prices the parallel pipeline by communication volume
// alone (DESIGN.md §5).

import (
	"repro/internal/dist"
	"repro/internal/fastio"
	"repro/internal/pagerank"
)

func init() {
	Register(distVariant{"dist"})
	Register(distVariant{"distgo"}) // the same variant under the name bench/workload.go uses
}

type distVariant struct{ name string }

// Name implements Variant.
func (v distVariant) Name() string { return v.name }

// Description implements Variant.
func (distVariant) Description() string {
	return "distributed memory: sample sort (out of core with -runedges), row-block matrix, all-reduce PageRank with exact communication accounting (the paper's §V parallel analysis)"
}

// procs is the processor (rank) count: Config.Workers when set, else a
// fixed default so results do not depend on the host's CPU count: kernel
// 3's rank vector differs across p in the last bits (DESIGN.md §4), and
// the communication record is a function of p.
func (distVariant) procs(r *Run) int {
	if r.Cfg.Workers > 0 {
		return r.Cfg.Workers
	}
	return 4
}

// distCfg assembles the full runtime configuration: Config.DistMode
// (validated by Config.Validate) plus the hybrid intra-rank worker count.
func (distVariant) distCfg(r *Run) dist.Config {
	m, _ := dist.ParseExecMode(r.Cfg.DistMode)
	return dist.Config{Mode: m, Workers: r.Cfg.RankWorkers}
}

// Kernel0 implements Variant.
func (distVariant) Kernel0(r *Run) error {
	return generateEdges(r)
}

// Kernel1 implements Variant.  The distributed sort keys on the start
// vertex only; the (u, v) ablation is the serial variants' kernel 1 under
// the same memory bound (sortKernel1).
func (v distVariant) Kernel1(r *Run) error {
	if r.Cfg.SortEndVertices {
		return sortKernel1(r, r.Cfg.RunEdges, true)
	}
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	ext := r.Cfg.RunEdges > 0
	spec := dist.Spec{Config: v.distCfg(r), Op: dist.OpSort, Edges: l, Procs: v.procs(r)}
	if ext {
		spec.Ext = dist.ExtSortConfig{FS: r.FS, RunEdges: r.Cfg.RunEdges, Codec: r.SpillCodec()}
	}
	out, err := dist.Execute(r.Context(), spec)
	if err != nil {
		return err
	}
	res := out.Sort
	r.AddComm(res.Comm)
	if ext {
		r.Spill = &SpillStats{Codec: res.SpillCodec, BytesWritten: res.Spill.BytesWritten, BytesRead: res.Spill.BytesRead}
		for _, n := range res.RunsPerRank {
			r.Spill.Runs += n
		}
	}
	return fastio.WriteStripedWide(r.FS, "k1", r.Codec(), r.Cfg.NFiles, res.Sorted, r.Cfg.Workers)
}

// Kernel2 implements Variant.
func (v distVariant) Kernel2(r *Run) error {
	l, err := readEdges(r, "k1")
	if err != nil {
		return err
	}
	out, err := dist.Execute(r.Context(), dist.Spec{
		Config: dist.Config{Mode: v.distCfg(r).Mode}, Op: dist.OpBuildFiltered,
		Edges: l, N: int(r.Cfg.N()), Procs: v.procs(r),
	})
	if err != nil {
		return err
	}
	b := out.Build
	r.AddComm(b.Comm)
	r.MatrixMass = b.Mass
	r.Matrix = b.Matrix
	return nil
}

// Kernel3 implements Variant.  In the socket mode with a FabricSource
// the iteration runs on the lent fabric, naming the cached matrix so
// workers that already hold its row blocks are sent none.
func (v distVariant) Kernel3(r *Run) (err error) {
	spec := dist.Spec{
		Config: v.distCfg(r), Op: dist.OpRunMatrix,
		Matrix: r.Matrix, Procs: v.procs(r), PageRank: r.Cfg.PageRank,
		Checkpoint: r.Cfg.Checkpoint, Fault: r.Cfg.Fault,
	}
	if progress := r.Cfg.Progress; progress != nil && spec.Checkpoint.FS != nil {
		// Compose the caller's checkpoint hooks with the Progress stream,
		// mirroring how the runner composes PageRank.Progress.
		innerCommit, innerResume := spec.Checkpoint.OnCommit, spec.Checkpoint.OnResume
		spec.Checkpoint.OnCommit = func(epoch int64) {
			if innerCommit != nil {
				innerCommit(epoch)
			}
			progress(Event{Kind: EventCheckpointSaved, Kernel: K3PageRank, Iteration: int(epoch)})
		}
		spec.Checkpoint.OnResume = func(epoch int64, torn int) {
			if innerResume != nil {
				innerResume(epoch, torn)
			}
			progress(Event{Kind: EventCheckpointRestored, Kernel: K3PageRank, Iteration: int(epoch)})
		}
	}
	if spec.Mode == dist.ExecSocket && r.Cfg.FabricSource != nil {
		lease, lerr := r.Cfg.FabricSource(spec.Procs)
		if lerr != nil {
			return lerr
		}
		defer func() { lease.Release(err) }()
		spec.Session, spec.OperandID = lease.Session, r.MatrixID
	}
	out, err := dist.Execute(r.Context(), spec)
	if err != nil {
		return err
	}
	res := out.Run
	r.AddComm(res.Comm)
	r.Checkpoint = res.Checkpoint
	r.Rank = &pagerank.Result{Rank: res.Rank, Iterations: res.Iterations}
	return nil
}

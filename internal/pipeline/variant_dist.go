package pipeline

// The dist variants run the pipeline through the distributed-memory
// runtime of internal/dist: kernel 1 is the splitter-based sample sort,
// kernels 2 and 3 use the 1D row-block decomposition with metered
// collectives.  "dist" runs the ranks one at a time (the simulation),
// "distgo" runs the same ranks concurrently (Config.DistMode overrides
// either).  Results are identical to the serial variants — the sort
// bit-for-bit, the matrix bit-for-bit, the rank vector to ~1e-12 — and
// identical between the two modes bit-for-bit, which is exactly the
// property the paper's §V analysis assumes when it prices the parallel
// pipeline by communication volume alone (DESIGN.md §5).

import (
	"repro/internal/dist"
	"repro/internal/fastio"
	"repro/internal/pagerank"
)

func init() {
	Register(distVariant{})
	Register(distVariant{mode: dist.ExecGoroutine})
}

type distVariant struct {
	// mode is the registered default; Config.DistMode overrides it.
	mode dist.ExecMode
}

// Name implements Variant.
func (v distVariant) Name() string {
	if v.mode == dist.ExecGoroutine {
		return "distgo"
	}
	return "dist"
}

// Description implements Variant.
func (v distVariant) Description() string {
	if v.mode == dist.ExecGoroutine {
		return "goroutine distributed memory: p concurrent ranks exchanging real channel messages, byte counts equal to the simulation and the §V closed form"
	}
	return "simulated distributed memory: sample sort, row-block matrix, all-reduce PageRank with exact communication accounting (the paper's §V parallel analysis)"
}

// procs is the processor (rank) count: Config.Workers when set, else a
// fixed default so results do not depend on the host's CPU count (they
// would not anyway — both modes are p-invariant — but determinism of the
// communication record matters for reports).
func (distVariant) procs(r *Run) int {
	if r.Cfg.Workers > 0 {
		return r.Cfg.Workers
	}
	return 4
}

// execMode resolves the effective execution mode: Config.DistMode when
// set (validated by Config.Validate), else the variant's registered
// default.
func (v distVariant) execMode(r *Run) dist.ExecMode {
	if r.Cfg.DistMode != "" {
		m, err := dist.ParseExecMode(r.Cfg.DistMode)
		if err == nil {
			return m
		}
	}
	return v.mode
}

// distCfg assembles the full runtime configuration: the resolved
// execution mode plus the hybrid intra-rank worker count.
func (v distVariant) distCfg(r *Run) dist.Config {
	return dist.Config{Mode: v.execMode(r), Workers: r.Cfg.RankWorkers}
}

// Kernel0 implements Variant.
func (distVariant) Kernel0(r *Run) error {
	return writeSourcedEdges(r)
}

// Kernel1 implements Variant.
func (v distVariant) Kernel1(r *Run) error {
	l, err := readEdges(r, "k0")
	if err != nil {
		return err
	}
	if r.Cfg.SortEndVertices {
		// The distributed sort keys on the start vertex only; the (u,v)
		// ablation falls back to the serial radix path, as the parallel
		// variant does.
		radixSort(r, l, true)
	} else {
		out, err := dist.Execute(r.Context(), dist.Spec{
			Config: v.distCfg(r), Op: dist.OpSort, Edges: l, Procs: v.procs(r),
		})
		if err != nil {
			return err
		}
		r.AddComm(out.Sort.Comm)
		l = out.Sort.Sorted
	}
	r.SortedOut = l
	return fastio.WriteStriped(r.FS, "k1", r.Codec(), r.Cfg.NFiles, l)
}

// Kernel2 implements Variant.  On a sorted-stage cache hit the shared
// list feeds OpBuildFiltered directly — dist.Spec.Edges is documented
// never-modified, so sharing is safe; the runtime scatters (broadcasts)
// the list's row blocks to the ranks exactly as for a cold run.
func (v distVariant) Kernel2(r *Run) error {
	l, err := sortedEdges(r)
	if err != nil {
		return err
	}
	out, err := dist.Execute(r.Context(), dist.Spec{
		Config: dist.Config{Mode: v.execMode(r)}, Op: dist.OpBuildFiltered,
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

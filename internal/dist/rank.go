package dist

// The rank program: the one statement of the distributed K1/K2/K3
// schedule.  Every rank of every execution mode runs runRank over a
// rankComm — p goroutines on the channel fabric (ExecGoroutine) or p
// worker processes on the socket fabric (ExecSocket, sockworker.go) — and
// communicates only through the collectives of collective.go.
// DESIGN.md §5 specifies the contract; because program, collectives and
// metering are shared, results and CommStats are equal across the modes by
// construction, and TestDistRankGolden holds the one program to the bits
// of the independent simulation it replaced.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

// ExecMode selects how the distributed runtime executes its p ranks.
type ExecMode int

const (
	// ExecGoroutine runs the p ranks as goroutines of this process,
	// exchanging messages over channels; wall clock scales with the
	// host's cores (the default).
	ExecGoroutine ExecMode = iota
	// ExecSocket runs p ranks as separate OS processes exchanging real
	// messages over unix-domain or TCP sockets (socket.go; DESIGN.md
	// §13).  Results, CommStats and spill records equal ExecGoroutine's
	// bit for bit, and the measured socket payload bytes equal the
	// metered CommStats — the paper's comm model tested against bytes on
	// an actual wire.
	ExecSocket
)

// validExecModes names every mode ParseExecMode accepts, for error
// messages — the single list both unknown-mode errors quote, so the two
// cannot drift.
const validExecModes = "goroutine, socket"

// String implements fmt.Stringer.
func (m ExecMode) String() string {
	switch m {
	case ExecGoroutine:
		return "goroutine"
	case ExecSocket:
		return "socket"
	default:
		return fmt.Sprintf("mode?(%d)", int(m))
	}
}

// ParseExecMode resolves the command-line spelling of a mode; the empty
// string selects ExecGoroutine.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "", "goroutine":
		return ExecGoroutine, nil
	case "socket":
		return ExecSocket, nil
	default:
		return 0, fmt.Errorf("dist: unknown execution mode %q (valid modes: %s)", s, validExecModes)
	}
}

// rankOutcome is what one rank's program hands back to the driver.
type rankOutcome struct {
	// st is the rank's built state (OpBuildFiltered only).
	st *rankState
	// rank is the final replicated rank vector; the driver reports rank
	// 0's copy (all replicas are byte-identical).
	rank []float64
	// iters is the performed iteration count.
	iters int
	// mass and nnz are the globally reduced kernel-2 scalars (identical
	// on every rank after their all-reduces).
	mass float64
	nnz  int
	// edges is the rank's sorted bucket (sort programs only).
	edges *edge.List
	// runs is the rank's spilled-run count and spill its run-file traffic
	// (out-of-core sort only).
	runs  int
	spill vfs.IOStats
	// err is a per-rank failure; the schedule guarantees option errors
	// surface identically on every rank before any collective, so no rank
	// can strand another inside one.
	err error
}

// joined is what either launcher hands Execute's assembler: the per-rank
// outcomes plus the summed communication record.
type joined struct {
	outcomes []rankOutcome
	comm     CommStats
	// seconds is each rank's wall clock.
	seconds []float64
	// wire is the measured socket traffic (ExecSocket only).
	wire *WireStats
}

// rankInput is everything one rank's program reads: what the in-process
// launcher captures from the Spec and a socket worker decodes from its
// job.
type rankInput struct {
	op Op
	// edges is the rank's own blockBounds chunk of the input edge list
	// (every op except OpRunMatrix): all a rank ever reads of the input.
	edges *edge.List
	n     int
	// k3 is the rank's kernel-3 operand (OpRunMatrix).
	k3      *rankOperand
	workers int
	opt     pagerank.Options
	// ext carries the sort's out-of-core knobs, resolved when it spills;
	// ext.FS is the store this rank spills to.
	ext ExtSortConfig
	ck  *ckptRun
}

// runRank is the rank program: in's op on rank c.rank of c's fabric.
func runRank(ctx context.Context, c *rankComm, in *rankInput) rankOutcome {
	switch in.op {
	case OpSort:
		if !in.ext.outOfCore() {
			return rankOutcome{edges: sortRank(c, in.edges, in.workers)}
		}
		// Run files are rank-private, so per-rank meters sum to the
		// sort's whole spill record.
		fs := vfs.NewMetered(in.ext.FS)
		bucket, runs, err := sortExternalRank(c, in.edges, fs, in.ext.TmpPrefix, in.ext.Codec, in.ext.RunEdges)
		return rankOutcome{edges: bucket, runs: runs, spill: fs.Stats(), err: err}
	case OpBuildFiltered:
		st, mass, nnz := buildRank(c, in.edges, in.n)
		return rankOutcome{st: st, mass: mass, nnz: nnz}
	case OpRun, OpRunMatrix:
		var out rankOutcome
		k3 := in.k3
		if in.op == OpRun {
			var st *rankState
			st, out.mass, out.nnz = buildRank(c, in.edges, in.n)
			k3 = st.operand()
		}
		out.rank, out.iters, out.err = iterateRank(ctx, c, k3, in.n, in.opt, in.workers, in.ck)
		return out
	default:
		return rankOutcome{err: fmt.Errorf("dist: unknown op %v", in.op)}
	}
}

// launchRanks runs spec's program on p in-process ranks (ExecGoroutine).
func launchRanks(ctx context.Context, spec Spec, ck *ckptRun) (*joined, error) {
	in := rankInput{
		op: spec.Op, edges: spec.Edges, n: specN(spec), workers: spec.workers(),
		opt: spec.PageRank, ext: spec.Ext, ck: ck,
	}
	var states []*rankState
	if spec.Op == OpRunMatrix {
		states = splitMatrix(spec.Matrix, spec.Procs)
	}
	return spawnRanks(ctx, spec.Procs, func(c *rankComm) rankOutcome {
		in := in
		if spec.Edges != nil {
			in.edges = spec.Edges.Slice(blockBounds(spec.Edges.Len(), spec.Procs, c.rank))
		}
		if states != nil {
			in.k3 = states[c.rank].operand() // each rank transposes its own block
		}
		return runRank(ctx, c, &in)
	})
}

// errRunAborted is the error a rank reports when it unwound because the
// fabric came down underneath it — a peer failed, or the run's context
// was cancelled.  spawnRanks surfaces the cause (the context's error or
// the originating rank's error) in preference to this sentinel.
var errRunAborted = errors.New("dist: run aborted")

// spawnRanks runs the rank program on p goroutines over a fresh channel
// fabric, joins them, and folds the per-rank communication records and
// wall-clock times.
//
// Teardown is defer-based and cannot strand a rank: a rank whose program
// returns an error (or panics) trips the fabric's teardown plane on its
// way out, which unwinds every peer blocked inside a collective; a
// cancelled ctx trips the same plane through a watcher goroutine.  Every
// rank goroutine therefore joins — wg.Wait cannot hang — and the watcher
// itself is stopped before spawnRanks returns, so an aborted run leaks
// nothing (execute_test.go counts goroutines to pin this).
func spawnRanks(ctx context.Context, p int, program func(c *rankComm) rankOutcome) (*joined, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := newChanFabric(p)
	var stopWatch chan struct{}
	if ctx.Done() != nil {
		stopWatch = make(chan struct{})
		//prlint:allow determinism -- cancellation watcher: joins via stopWatch before spawnRanks returns, never touches results
		go func() {
			select {
			case <-ctx.Done():
				f.abort()
			case <-stopWatch:
			}
		}()
	}
	comms := make([]*rankComm, p)
	outcomes := make([]rankOutcome, p)
	seconds := make([]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		comms[r] = newRankComm(f, r)
		wg.Add(1)
		//prlint:allow determinism -- the rank spawner IS the distributed machine; ranks sync only through the metered fabric and join on wg
		go func(r int) {
			defer wg.Done()
			// Runs after the recover below: a rank that failed for any
			// reason brings the fabric down so no peer waits for it.
			defer func() {
				if outcomes[r].err != nil {
					f.abort()
				}
			}()
			defer func() {
				if e := recover(); e != nil {
					if _, down := e.(fabricDown); down {
						outcomes[r].err = errRunAborted
						return
					}
					// A genuine bug: free the peers, then crash as before.
					f.abort()
					panic(e)
				}
			}()
			//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
			start := time.Now()
			outcomes[r] = program(comms[r])
			//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
			seconds[r] = time.Since(start).Seconds()
		}(r)
	}
	wg.Wait()
	if stopWatch != nil {
		close(stopWatch)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The originating failure (in rank order) outranks the aborted
	// sentinel of the ranks it unwound.
	var aborted error
	for r := 0; r < p; r++ {
		switch err := outcomes[r].err; {
		case err == nil:
		case errors.Is(err, errRunAborted):
			if aborted == nil {
				aborted = err
			}
		default:
			return nil, err
		}
	}
	if aborted != nil {
		return nil, aborted
	}
	j := &joined{outcomes: outcomes, seconds: seconds}
	for r := 0; r < p; r++ {
		j.comm.Add(comms[r].st)
	}
	return j, nil
}

// buildRank is one rank's kernel-2 program: route its input chunk,
// exchange edges all-to-all, build the block-local counting matrix, and
// apply the global filter through the in-degree all-reduce (the matrix
// mass and the stored-entry count are metered scalar reductions beside
// it; counts are integers, so their float64 sums are exact).  Inputs were
// validated by Execute, so the program cannot fail mid-collective.
func buildRank(c *rankComm, l *edge.List, n int) (*rankState, float64, int) {
	p := c.procs()
	out := make([]*edge.List, p)
	for d := range out {
		out[d] = edge.NewList(0)
	}
	routeChunk(out, l, n, p)
	in := c.exchangeEdges(out)
	local := edge.NewList(0)
	for _, part := range in {
		local.AppendList(part)
	}
	rowLo, rowHi := blockBounds(n, p, c.rank)
	blk, err := sparse.FromEdgeRows(local, n, rowLo, rowHi)
	if err != nil {
		// Unreachable after validateVertices; a failure here is a routing bug.
		panic(err)
	}
	mass := c.allReduceScalar(blk.SumValues())
	din := blk.InDegrees()
	c.allReduceSum(din)
	st := &rankState{lo: rowLo, blk: blk}
	filterBlock(st, din)
	nnz := int(c.allReduceScalar(float64(blk.NNZ())))
	return st, mass, nnz
}

// iterateRank is one rank's kernel-3 program: rank 0 materializes the
// initial vector and broadcasts it, then every rank drives the shared
// pagerank.Engine update on its private replica, with the step hook
// computing the block-local partial product and all-reducing it, and the
// dangling-mass hook all-reducing the owned dangling rows' mass.  Every
// replica follows a byte-identical trajectory — the all-reduce hands all
// ranks the root's rank-ordered sum — so rank 0's result is the global
// result.  The local product is the gather over the block's ordered
// transpose (rankProduct), on the rank's persistent team max(workers, 1)
// wide, bit-for-bit invariantly.  Combined with the engine's
// preallocated vectors and the fabric's pooled buffers, the steady-state
// iteration performs no heap allocation on any rank.
//
// The engine is driven through RunContext, so every rank checks ctx at
// its iteration boundary.  The first rank to observe cancellation
// returns ctx's error; spawnRanks' teardown then brings the fabric down
// under any peer still blocked in that iteration's collective, so the
// whole team unwinds promptly (DESIGN.md §8).  The product's close is
// deferred and runs on every exit path, unwinding included.
//
// The checkpoint runtime (ck, may be nil) installs the rank's
// post-iteration hook: at every epoch boundary the rank writes its own
// block chunk, agrees with its peers that all chunks landed, and rank 0
// commits the epoch — plus the planned rank failure, if any
// (checkpoint.go documents the protocol and the fault semantics).
func iterateRank(ctx context.Context, c *rankComm, k3 *rankOperand, n int, opt pagerank.Options, workers int, ck *ckptRun) ([]float64, int, error) {
	if c.rank != 0 {
		// Progress is a single-observer hook: the replicas step in
		// lockstep, so rank 0 reports for the team.
		opt.Progress = nil
	}
	var r0 []float64
	if c.rank == 0 {
		if opt.InitialRank != nil {
			r0 = opt.InitialRank
		} else {
			r0 = pagerank.InitVector(n, opt.Seed)
		}
	}
	opt.InitialRank = c.broadcastFloats(r0) // the engine copies, not aliases
	prod := newRankProduct(k3, workers)
	defer prod.close()
	step := func(out, r []float64) {
		prod.vxm(out, r)
		c.allReduceSum(out)
	}
	dangleMass := func(r []float64) float64 {
		return c.allReduceScalar(danglingMassOf(k3, r))
	}
	e, err := pagerank.NewEngine(n, step, dangleMass, opt)
	if err != nil {
		return nil, 0, err
	}
	res, err := e.RunContextAfter(ctx, ck.afterRank(c, k3.lo, k3.hi))
	if err != nil {
		return nil, 0, err
	}
	return res.Rank, res.Iterations, nil
}

// sortExternalRank is one rank's out-of-core sample-sort program: spill
// its input chunk l as bounded sorted runs, agree that every rank's spill
// succeeded (control-plane barrier — a storage failure anywhere aborts all
// ranks before the next collective), run the in-memory sort's sample and
// splitter schedule, split each run at the splitters and exchange the
// segments, then k-way merge the received segments in (source rank, run)
// order.  The rank's own run files are removed before it returns, on every
// path.
func sortExternalRank(c *rankComm, l *edge.List, fs vfs.FS, prefix string, codec fastio.Codec, runEdges int) (bucket *edge.List, runs int, err error) {
	p := c.procs()
	names, spillErr := extSpillRuns(fs, prefix, codec, l, c.rank, runEdges)
	defer func() {
		if rmErr := xsort.RemoveRuns(fs, names); rmErr != nil && err == nil {
			bucket, err = nil, rmErr
		}
	}()
	if err := c.agreeError(spillErr); err != nil {
		return nil, len(names), err
	}

	splitters := splitterPhase(c, l)

	out := make([][]*edge.List, p)
	var partErr error
	for _, name := range names {
		parts, perr := extPartitionRun(fs, name, codec, splitters, p)
		if perr != nil {
			partErr = perr
			break
		}
		for d, part := range parts {
			if part.Len() > 0 {
				out[d] = append(out[d], part)
			}
		}
	}
	if err := c.agreeError(partErr); err != nil {
		return nil, len(names), err
	}

	in := c.exchangeSegments(out)
	var ordered []*edge.List
	for _, group := range in {
		ordered = append(ordered, group...)
	}
	bucket = edge.NewList(0)
	xsort.MergeLists(ordered, bucket, false)
	return bucket, len(names), nil
}

// splitterPhase runs one rank's share of the sort's sampling and splitter
// schedule: sample the rank's input chunk l, gather the samples at rank
// 0, select the splitters there and receive the broadcast.  The in-memory
// and out-of-core sorts share it, so the two schedules cannot drift apart.
func splitterPhase(c *rankComm, l *edge.List) []uint64 {
	p := c.procs()
	all := c.gatherKeys(sampleChunk(l))
	var splitters []uint64
	if c.rank == 0 {
		samples := make([]uint64, 0, p*SamplesPerRank)
		for _, keys := range all {
			samples = append(samples, keys...)
		}
		splitters = chooseSplitters(samples, p)
	}
	return c.broadcastKeys(splitters)
}

// sortRank is one rank's sample-sort program: sample its input chunk l,
// gather samples at rank 0, receive the broadcast splitters, exchange
// edges by key range, and stably sort the resulting bucket — the
// partitioning and the bucket sort both on the rank's hybrid workers.
func sortRank(c *rankComm, l *edge.List, workers int) *edge.List {
	splitters := splitterPhase(c, l)
	out := partitionChunk(l, splitters, c.procs(), workers)
	in := c.exchangeEdges(out)
	bucket := edge.NewList(l.Len() * 2)
	for _, part := range in {
		bucket.AppendList(part)
	}
	xsort.Sort(bucket, false, workers)
	return bucket
}

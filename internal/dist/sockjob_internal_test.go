package dist

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dist/fabric"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

// namesRank fails t unless err is an error that names rank.
func namesRank(t *testing.T, name string, err error, rank int) {
	t.Helper()
	t.Logf("%s: %v", name, err)
	if err == nil {
		t.Errorf("%s: accepted", name)
	} else if !strings.Contains(err.Error(), fmt.Sprintf("rank %d ", rank)) {
		t.Errorf("%s: error %q does not name rank %d", name, err, rank)
	}
}

// TestForgedOutcomesRejected feeds the coordinator's control-frame
// handler outcomes a worker could send but the rank program never
// would, each through the outcome encoder (and, where the forgery is
// below the encoder, a patch of its bytes): each must come back as an
// error that names the rank, never as an outcome that assemble or the
// bucket concatenation then indexes with (a block starting at row 1<<20
// would take assemble out of range).  The genuine outcome is the control.
func TestForgedOutcomesRejected(t *testing.T) {
	a := testMatrix(t)
	n, p, rank := a.N, 3, 1
	st := splitMatrix(a, p)[rank]
	lo, hi := blockBounds(n, p, rank)
	genuine := func() *report {
		own := &rankState{lo: st.lo, blk: st.blk.Clone()}
		return &report{out: rankOutcome{st: own}}
	}
	bucket := func(o *rankOutcome) {
		o.st, o.edges = nil, edge.NewList(3)
		o.edges.Append(1, 1)
		o.edges.Append(2, 1)
		o.edges.Append(3, 1)
	}
	cases := []struct {
		name  string
		op    Op // OpBuildFiltered when left at OpRun
		forge func(o *rankOutcome)
		patch func(b []byte) []byte
	}{
		{name: "genuine", forge: func(o *rankOutcome) {}},
		{name: "block far past n", forge: func(o *rankOutcome) { o.st.lo = 1 << 20 }},
		{name: "block of another rank's start", forge: func(o *rankOutcome) { o.st.lo = 0 }},
		{name: "negative start", forge: func(o *rankOutcome) { o.st.lo = -1 }},
		{name: "one row short", forge: func(o *rankOutcome) { o.st.blk = o.st.blk.RowBlock(0, hi-lo-1) }},
		{name: "no row pointers", forge: func(o *rankOutcome) { o.st.blk.RowPtr = nil }},
		{name: "another column count", forge: func(o *rankOutcome) { o.st.blk.N = n + 1 }},
		{name: "no matrix", forge: func(o *rankOutcome) { o.st = nil }},
		{name: "column out of range", forge: func(o *rankOutcome) { o.st.blk.Col[0] = uint32(n) }},
		{name: "columns out of order", forge: func(o *rankOutcome) {
			b := o.st.blk
			for i := 0; i < b.Rows(); i++ {
				if k := b.RowPtr[i]; b.RowPtr[i+1]-k >= 2 {
					b.Col[k], b.Col[k+1] = b.Col[k+1], b.Col[k]
					return
				}
			}
			t.Fatal("no row with two entries")
		}},
		{name: "row pointers past the entries", forge: func(o *rankOutcome) { o.st.blk.RowPtr[1] = int64(len(o.st.blk.Col) + 5) }},
		{name: "row pointers descending", forge: func(o *rankOutcome) { o.st.blk.RowPtr[1] = -1 }},
		{name: "values missing", forge: func(o *rankOutcome) { o.st.blk.Val = o.st.blk.Val[:1] }},
		{name: "sort bucket one end vertex short", op: OpSort, forge: bucket,
			patch: func(b []byte) []byte { return b[:len(b)-8] }},
		{name: "sort outcome without its bucket", op: OpSort, forge: func(o *rankOutcome) { o.st = nil }},
		{name: "result vector from rank 1", op: OpRunMatrix, forge: func(o *rankOutcome) { o.st, o.rank = nil, make([]float64, n) },
			patch: func(b []byte) []byte {
				// Rank 1's encoder drops the vector; graft rank 0's body on.
				return append(fabric.AppendInt(b[:len(b)-8], bodyVec), fabric.AppendFloats(nil, make([]float64, n))...)
			}},
		{name: "trailing byte", forge: func(o *rankOutcome) {}, patch: func(b []byte) []byte { return append(b, 0) }},
		{name: "unknown error kind", forge: func(o *rankOutcome) {}, patch: func(b []byte) []byte { b[0] = 9; return b }},
	}
	for _, tc := range cases {
		op := tc.op
		if op == OpRun {
			op = OpBuildFiltered
		}
		rep := genuine()
		tc.forge(&rep.out)
		payload := encodeOutcome(rank, rep)
		if tc.patch != nil {
			payload = tc.patch(payload)
		}
		j := &sessJob{op: op, n: n, outs: make([]*report, p)}
		got, err := j.frame(rank, nil, fabric.Header{Type: fabric.FrameOutcome, Src: rank, Dst: rank}, payload)
		if tc.name == "genuine" {
			if err != nil {
				t.Fatalf("genuine outcome rejected: %v", err)
			}
			if b := got.out.st.blk; b.Rows() != hi-lo || b.NNZ() != st.blk.NNZ() {
				t.Fatalf("genuine block arrived as %d rows, %d entries", b.Rows(), b.NNZ())
			}
			continue
		}
		namesRank(t, tc.name, err, rank)
	}
}

// TestForgedRelaysRejected holds the coordinator's relay of progress and
// checkpoint frames to the protocol: only rank 0 reports progress and
// commits an epoch, and a rank relays only its own chunk — its rank, its
// blockBounds rows, the run's n and p.  Each forgery is an error that
// names the sender; the genuine frames are the controls.
func TestForgedRelaysRejected(t *testing.T) {
	const n, p = 40, 3
	c1, c2 := net.Pipe()
	var st fabric.Stats
	ctrl, peer := fabric.NewLink(c1, -1, &st), fabric.NewLink(c2, -1, &st)
	defer ctrl.Close()
	defer peer.Close()
	acks := make(chan string)
	go func() {
		for {
			_, payload, err := peer.ReadFrame()
			if err != nil {
				return
			}
			acks <- string(payload)
		}
	}()
	var seen []int
	j := &sessJob{op: OpRun, n: n, outs: make([]*report, p),
		progress: func(it int) { seen = append(seen, it) },
		ck:       &ckptRun{spec: CheckpointSpec{FS: vfs.NewMem(), Every: 1}.withDefaults(), n: n, procs: p, damping: 0.85}}
	frame := func(rank int, t fabric.FrameType, payload []byte) error {
		_, err := j.frame(rank, ctrl, fabric.Header{Type: t, Src: rank, Dst: rank}, payload)
		return err
	}
	chunk := func(rank int, forge func(c *ckpt.Chunk)) []byte {
		lo, hi := blockBounds(n, p, rank)
		c := &ckpt.Chunk{Kind: ckpt.KindChunk, Epoch: 1, N: n, Procs: p, Rank: int64(rank),
			Lo: int64(lo), Hi: int64(hi), Damping: 0.85, Data: make([]float64, hi-lo)}
		forge(c)
		var buf bytes.Buffer
		if err := ckpt.Encode(&buf, c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	epoch := fabric.AppendU64(nil, 1)

	if err := frame(0, fabric.FrameProgress, fabric.AppendU64(nil, 7)); err != nil || len(seen) != 1 || seen[0] != 7 {
		t.Fatalf("rank 0's progress: %v, hook saw %v", err, seen)
	}
	if err := frame(1, fabric.FrameCkptChunk, chunk(1, func(*ckpt.Chunk) {})); err != nil || <-acks != "" {
		t.Fatalf("rank 1's own chunk refused: %v", err)
	}
	namesRank(t, "progress from rank 1", frame(1, fabric.FrameProgress, fabric.AppendU64(nil, 7)), 1)
	namesRank(t, "commit from rank 1", frame(1, fabric.FrameCkptCommit, epoch), 1)
	for name, forge := range map[string]func(c *ckpt.Chunk){
		"another rank's chunk": func(c *ckpt.Chunk) { c.Rank = 2 },
		"rows from below":      func(c *ckpt.Chunk) { c.Lo--; c.Data = append(c.Data, 0) },
		"rows past the block":  func(c *ckpt.Chunk) { c.Hi++; c.Data = append(c.Data, 0) },
		"another n":            func(c *ckpt.Chunk) { c.N++ },
		"another p":            func(c *ckpt.Chunk) { c.Procs++ },
	} {
		namesRank(t, name, frame(1, fabric.FrameCkptChunk, chunk(1, forge)), 1)
	}
	if len(seen) != 1 {
		t.Errorf("progress hook ran for a refused frame: %v", seen)
	}
	if err := frame(0, fabric.FrameCkptCommit, epoch); err != nil || <-acks != "" {
		t.Fatalf("rank 0's commit refused: %v", err)
	}
}

// bogusCodec is a spill codec no worker knows by name.
type bogusCodec struct{ fastio.Binary }

func (bogusCodec) Name() string { return "bogus" }

// TestForgedJobsRejected feeds a worker's job decoder jobs the
// coordinator could send but encodeJob never would for a valid Spec: each
// must be an error that names the decoding rank — no panic, and nothing
// sized by a forged length before it is checked against the payload.
// The genuine jobs of every op are the controls.
func TestForgedJobsRejected(t *testing.T) {
	const p, rank = 3, 1
	a := testMatrix(t)
	n := a.N
	l := edge.NewList(0)
	for i := 0; i < 3*a.N+1; i++ { // m = 3n+1: the ranks' chunks differ in length
		l.Append(uint64(i%n), uint64((7*i)%n))
	}
	sortSpec := Spec{Op: OpSort, Procs: p, Edges: l}
	extSpec := Spec{Op: OpSort, Procs: p, Edges: l, Ext: ExtSortConfig{RunEdges: 8, Codec: fastio.Packed{}}}
	buildSpec := Spec{Op: OpBuildFiltered, Procs: p, N: n, Edges: l}
	runSpec := Spec{Op: OpRun, Procs: p, N: n, Edges: l, PageRank: pagerank.Options{Teleport: pagerank.InitVector(n, 3)}}
	matSpec := Spec{Op: OpRunMatrix, Procs: p, Matrix: a, PageRank: pagerank.Options{InitialRank: pagerank.InitVector(n, 2)}}
	ck := &ckptRun{spec: CheckpointSpec{FS: vfs.NewMem(), Every: 2}, damping: 0.85}

	for name, spec := range map[string]Spec{"sort": sortSpec, "ext sort": extSpec, "build": buildSpec, "run": runSpec, "run-matrix": matSpec} {
		for r := 0; r < p; r++ {
			wj, err := parseJob(encodeJob(spec, ck, r, spec.Op == OpRunMatrix), r, p)
			if err != nil {
				t.Fatalf("genuine %s job of rank %d rejected: %v", name, r, err)
			}
			if lo, hi := blockBounds(l.Len(), p, r); spec.Op != OpRunMatrix && !wj.edges.Equal(l.Slice(lo, hi)) {
				t.Fatalf("%s job of rank %d: chunk is not edges [%d,%d)", name, r, lo, hi)
			}
			if spec.Op == OpRunMatrix && (wj.k3 == nil || (r == 0) != (wj.opt.InitialRank != nil)) {
				t.Fatalf("run-matrix job of rank %d: operand %v, initial vector %d", r, wj.k3 != nil, len(wj.opt.InitialRank))
			}
		}
	}

	with := func(s Spec, f func(*Spec)) Spec { f(&s); return s }
	rowLo, _ := blockBounds(n, p, rank)
	edgeLo, _ := blockBounds(l.Len(), p, rank)
	badCol := a.Clone()
	badCol.Col[badCol.RowPtr[rowLo]] = uint32(n)
	wrongVertex := l.Clone()
	wrongVertex.U[edgeLo] = uint64(n)
	type forged struct {
		name     string
		spec     Spec
		enc, dec int // the rank whose job is encoded, and the decoding rank
		patch    func(b []byte) []byte
	}
	at := func(name string, spec Spec, patch func(b []byte) []byte) forged {
		return forged{name: name, spec: spec, enc: rank, dec: rank, patch: patch}
	}
	chunkCount := func(b []byte) []byte { // the count of a build job's trailing chunk, forged
		lo, hi := blockBounds(l.Len(), p, rank)
		off := len(b) - edgeWireBytes*(hi-lo) - 8
		return append(fabric.AppendU64(b[:off:off], 1<<40), b[off+8:]...)
	}
	cases := []forged{
		at("truncated", sortSpec, func(b []byte) []byte { return b[:len(b)-1] }),
		at("trailing byte", sortSpec, func(b []byte) []byte { return append(b, 0) }),
		at("header only", sortSpec, func(b []byte) []byte { return b[:8] }),
		at("empty", sortSpec, func(b []byte) []byte { return nil }),
		at("edge count past the payload", buildSpec, chunkCount),
		at("p mismatch", with(sortSpec, func(s *Spec) { s.Procs = p + 1 }), nil),
		at("unknown op", with(sortSpec, func(s *Spec) { s.Op = 99 }), nil),
		at("unknown codec", with(extSpec, func(s *Spec) { s.Ext.Codec = bogusCodec{} }), nil),
		at("negative RunEdges", with(extSpec, func(s *Spec) { s.Ext.RunEdges = -1 }), nil),
		at("n = 0 with an operand", with(runSpec, func(s *Spec) { s.N, s.PageRank.Teleport = 0, nil }), nil),
		at("teleport vector one short", with(runSpec, func(s *Spec) { s.PageRank.Teleport = s.PageRank.Teleport[1:] }), nil),
		{name: "initial vector one long", enc: 0, dec: 0,
			spec: with(matSpec, func(s *Spec) { s.PageRank.InitialRank = append(s.PageRank.InitialRank, 0) })},
		{name: "initial vector for rank 1", spec: matSpec, enc: 0, dec: rank},
		{name: "another rank's chunk", spec: sortSpec, enc: 2, dec: rank},
		{name: "another rank's block", spec: matSpec, enc: 2, dec: rank},
		at("edge past n", with(buildSpec, func(s *Spec) { s.Edges = wrongVertex }), nil),
		at("block column past n", with(matSpec, func(s *Spec) { s.Matrix = badCol }), nil),
	}
	for _, tc := range cases {
		payload := encodeJob(tc.spec, ck, tc.enc, tc.spec.Op == OpRunMatrix)
		if tc.patch != nil {
			payload = tc.patch(payload)
		}
		_, err := parseJob(payload, tc.dec, p)
		namesRank(t, tc.name, err, tc.dec)
	}
}

// TestChunkFitsFrameLimit pins the refusal Execute makes before a socket
// job is sent: a rank's chunk, 16 bytes per edge, must fit one frame.
func TestChunkFitsFrameLimit(t *testing.T) {
	const most = fabric.DefaultMaxFrameBytes / edgeWireBytes // edges in a full frame
	if err := chunkFits(2*most, 2); err != nil {
		t.Fatalf("two full-frame chunks refused: %v", err)
	}
	if err := chunkFits(2*most+1, 2); err == nil {
		t.Fatal("a chunk one edge past the frame limit accepted")
	}
	if err := chunkFits(0, 3); err != nil {
		t.Fatalf("empty input refused: %v", err)
	}
}

// FuzzControlDecode drives the worker's job decoder and the
// coordinator's outcome decoder with arbitrary bytes, seeded with a
// genuine job and outcome of every op.  Neither may panic or size an
// allocation by a length the payload does not back, and whatever they
// accept must be what the rank program or assemble can use.
func FuzzControlDecode(f *testing.F) {
	const p, rank = 3, 1
	l := edge.NewList(0)
	for i := 0; i < 40; i++ {
		l.Append(uint64(i%16), uint64((5*i)%16))
	}
	build, err := Execute(context.Background(), Spec{Op: OpBuildFiltered, Procs: 1, N: 16, Edges: l})
	if err != nil {
		f.Fatal(err)
	}
	a := build.Build.Matrix
	specs := []Spec{
		{Op: OpRun, Procs: p, N: 16, Edges: l, PageRank: pagerank.Options{Teleport: pagerank.InitVector(16, 1)}},
		{Op: OpRunMatrix, Procs: p, Matrix: a},
		{Op: OpBuildFiltered, Procs: p, N: 16, Edges: l},
		{Op: OpSort, Procs: p, Edges: l, Ext: ExtSortConfig{RunEdges: 4, Codec: fastio.Packed{}}},
	}
	ck := &ckptRun{spec: CheckpointSpec{FS: vfs.NewMem(), Every: 3}, damping: 0.85, fault: &FaultPlan{KillRank: 1, AtIteration: 2}}
	states := splitMatrix(a, p)
	bucket := l.Slice(0, 5)
	for _, spec := range specs {
		f.Add(uint8(spec.Op), false, encodeJob(spec, ck, rank, spec.Op == OpRunMatrix))
		out := rankOutcome{iters: 3, mass: 40, nnz: a.NNZ()}
		switch spec.Op {
		case OpSort:
			out.edges = bucket
		case OpBuildFiltered:
			out.st = states[rank]
		default:
			out.rank = pagerank.InitVector(16, 2) // rank 0's body
		}
		r := rank
		if out.rank != nil {
			r = 0
		}
		f.Add(uint8(spec.Op)|uint8(r)<<4, true, encodeOutcome(r, &report{out: out, seconds: 0.5}))
	}
	f.Add(uint8(OpRun), true, encodeOutcome(rank, &report{out: rankOutcome{err: ErrFaultInjected}}))

	f.Fuzz(func(t *testing.T, which uint8, outcome bool, data []byte) {
		op, r := Op(which%4), int(which>>4)%p
		if !outcome {
			in, err := parseJob(data, r, p)
			if err != nil {
				return
			}
			if (in.op == OpRunMatrix) != (in.edges == nil) {
				t.Fatalf("accepted a %v job with chunk %v", in.op, in.edges)
			}
			if in.ck != nil && in.ck.relay && in.ck.spec.Every < 1 {
				t.Fatalf("accepted a checkpoint every %d iterations", in.ck.spec.Every)
			}
			if in.k3 != nil && in.k3.at.N() != in.n {
				t.Fatalf("accepted an operand of %d columns for n = %d", in.k3.at.N(), in.n)
			}
			return
		}
		rep, err := parseOutcome(data, op, 16, p, r)
		if err != nil || rep.out.err != nil {
			return
		}
		switch o := rep.out; {
		case op == OpSort && o.edges == nil, op == OpBuildFiltered && o.st == nil:
			t.Fatalf("accepted a %v outcome without its result", op)
		case o.st != nil:
			if err := checkBlock(o.st, 16, p, r); err != nil {
				t.Fatalf("accepted a block that fails its check: %v", err)
			}
		case (op == OpRun || op == OpRunMatrix) && r == 0 && len(o.rank) != 16:
			t.Fatalf("accepted a %d-element result vector", len(o.rank))
		}
	})
}

package dist

import (
	"strings"
	"testing"

	"repro/internal/dist/fabric"
)

// TestForgedOutcomesRejected feeds the coordinator's control-frame
// handler outcomes a worker could send but the rank program never
// would: each must come back as an error that names the rank, never as
// an outcome that assemble or the bucket concatenation then indexes with
// (a block starting at row 1<<20 would take assemble out of range).  The
// genuine outcome is the control.
func TestForgedOutcomesRejected(t *testing.T) {
	a := testMatrix(t)
	n, p, rank := a.N, 3, 1
	st := splitMatrix(a, p)[rank]
	lo, hi := blockBounds(n, p, rank)
	if len(st.danglingRows) == 0 {
		t.Fatal("rank 1 owns no dangling rows: the dangling-row cases are not exercised")
	}
	genuine := func() *wireOutcome {
		own := &rankState{lo: st.lo, blk: st.blk.Clone(), danglingRows: append([]int(nil), st.danglingRows...)}
		return &wireOutcome{Rank: rank, Block: stateToWire(own)}
	}
	cases := []struct {
		name  string
		forge func(o *wireOutcome)
	}{
		{"genuine", func(o *wireOutcome) {}},
		{"block far past n", func(o *wireOutcome) { o.Block.Lo = 1 << 20 }},
		{"block of another rank's start", func(o *wireOutcome) { o.Block.Lo = 0 }},
		{"negative start", func(o *wireOutcome) { o.Block.Lo = -1 }},
		{"one row short", func(o *wireOutcome) { o.Block.Block = o.Block.Block.RowBlock(0, hi-lo-1) }},
		{"no row pointers", func(o *wireOutcome) { o.Block.Block.RowPtr = nil }},
		{"another column count", func(o *wireOutcome) { o.Block.Block.N = n + 1 }},
		{"no matrix", func(o *wireOutcome) { o.Block.Block = nil }},
		{"column out of range", func(o *wireOutcome) { o.Block.Block.Col[0] = uint32(n) }},
		{"columns out of order", func(o *wireOutcome) {
			b := o.Block.Block
			for i := 0; i < b.Rows(); i++ {
				if k := b.RowPtr[i]; b.RowPtr[i+1]-k >= 2 {
					b.Col[k], b.Col[k+1] = b.Col[k+1], b.Col[k]
					return
				}
			}
			t.Fatal("no row with two entries")
		}},
		{"row pointers past the entries", func(o *wireOutcome) { o.Block.Block.RowPtr[1] = int64(len(o.Block.Block.Col) + 5) }},
		{"row pointers descending", func(o *wireOutcome) { o.Block.Block.RowPtr[1] = -1 }},
		{"values missing", func(o *wireOutcome) { o.Block.Block.Val = o.Block.Block.Val[:1] }},
		{"dangling row below the block", func(o *wireOutcome) { o.Block.DanglingRows[0] = lo - 1 }},
		{"dangling row past the block", func(o *wireOutcome) { o.Block.DanglingRows = append(o.Block.DanglingRows, hi) }},
		{"dangling rows repeated", func(o *wireOutcome) {
			o.Block.DanglingRows = append(o.Block.DanglingRows, o.Block.DanglingRows[len(o.Block.DanglingRows)-1])
		}},
		{"sort bucket halves unequal", func(o *wireOutcome) {
			o.Block, o.EdgesU, o.EdgesV = nil, []uint64{1, 2, 3}, []uint64{1}
		}},
	}
	for _, tc := range cases {
		out := genuine()
		tc.forge(out)
		payload, err := encodeGob(out)
		if err != nil {
			t.Fatal(err)
		}
		j := &sessJob{n: n, outs: make([]*wireOutcome, p), errs: make([]error, p)}
		got, err := j.frame(rank, nil, fabric.Header{Type: fabric.FrameOutcome, Src: rank, Dst: rank}, payload)
		if tc.name == "genuine" {
			if err != nil {
				t.Fatalf("genuine outcome rejected: %v", err)
			}
			if b := got.Block.state().blk; b.Rows() != hi-lo || b.NNZ() != st.blk.NNZ() {
				t.Fatalf("genuine block arrived as %d rows, %d entries", b.Rows(), b.NNZ())
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "rank 1 ") {
			t.Errorf("%s: error %q does not name rank 1", tc.name, err)
		}
	}
}

package dist_test

// Property tests for the out-of-core distributed sample sort: for every
// processor count and every run-buffer size the output must equal the
// serial stable radix sort bit for bit, the communication record must
// equal the in-memory distributed sort's, the spill I/O must account for
// exactly one write and one read-back of every edge, and the run files
// must be gone afterwards — on failure paths too.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

// adversarialInputs builds the kernel-1 edge cases the sort must survive:
// duplicate-heavy keys, already-sorted and reverse-sorted input, fewer
// edges than processors (empty chunks), and the crafted inputs the
// in-memory sort's tests use.
func adversarialInputs(t *testing.T) map[string]*edge.List {
	t.Helper()
	inputs := map[string]*edge.List{}
	inputs["kronecker"], _ = kron(t, 7, 5)

	dup := edge.NewList(257)
	for i := 0; i < 257; i++ {
		dup.Append(uint64(i%4), uint64(i*7%257))
	}
	inputs["duplicate-heavy"] = dup

	sorted := edge.NewList(200)
	for i := 0; i < 200; i++ {
		sorted.Append(uint64(i/2), uint64(199-i))
	}
	inputs["already-sorted"] = sorted

	rev := edge.NewList(200)
	for i := 0; i < 200; i++ {
		rev.Append(uint64(200-i), uint64(i))
	}
	inputs["reverse-sorted"] = rev

	tiny := edge.NewList(3)
	tiny.Append(9, 1)
	tiny.Append(2, 2)
	tiny.Append(9, 0)
	inputs["m-less-than-p"] = tiny

	same := edge.NewList(16)
	for i := 0; i < 16; i++ {
		same.Append(3, uint64(15-i))
	}
	inputs["all-equal-u"] = same

	inputs["empty"] = edge.NewList(0)
	return inputs
}

// runEdgesChoices returns run-buffer sizes forcing one, about two, and
// many runs per rank for an m-edge input on p processors.
func runEdgesChoices(m, p int) []int {
	chunk := m/p + 1
	two := chunk/2 + 1
	if two < 1 {
		two = 1
	}
	return []int{m + 1, two, 7}
}

// execModes are the modes the in-process suites loop over.  ExecSocket
// spawns worker processes per fabric, so its suites are socket_test.go's.
var execModes = []dist.ExecMode{dist.ExecGoroutine}

func TestSortExternalEqualsSerialBitForBit(t *testing.T) {
	for name, l := range adversarialInputs(t) {
		want := l.Clone()
		xsort.RadixByU(want)
		for _, p := range procCounts {
			// The in-memory distributed sort is the communication
			// reference: spilling must not change what crosses the wire.
			ref, err := execSort(dist.Config{}, l, p)
			if err != nil {
				t.Fatal(err)
			}
			m := l.Len()
			if m == 0 {
				m = 1
			}
			for _, runEdges := range runEdgesChoices(m, p) {
				for _, mode := range execModes {
					fs := vfs.NewMem()
					res, err := execSortExt(mode, l, p, dist.ExtSortConfig{FS: fs, RunEdges: runEdges})
					if err != nil {
						t.Fatalf("%s p=%d runEdges=%d %v: %v", name, p, runEdges, mode, err)
					}
					if !res.Sorted.Equal(want) {
						t.Fatalf("%s p=%d runEdges=%d %v: output differs from serial radix sort", name, p, runEdges, mode)
					}
					if !res.Sorted.SameMultiset(l) {
						t.Fatalf("%s p=%d runEdges=%d %v: sort lost edges", name, p, runEdges, mode)
					}
					if l.Len() > 0 && res.Comm != ref.Comm {
						t.Errorf("%s p=%d runEdges=%d %v: comm %+v, in-memory sort %+v",
							name, p, runEdges, mode, res.Comm, ref.Comm)
					}
					if p == 1 && res.Comm != (dist.CommStats{}) {
						t.Errorf("%s p=1 %v: nonzero comm %+v", name, mode, res.Comm)
					}
					// Every edge is written and read back exactly once at
					// 16 bytes, one file create and open per spilled run.
					runs := 0
					for _, n := range res.RunsPerRank {
						runs += n
					}
					if sp, want := res.Spill, int64(16*l.Len()); sp.BytesWritten != want || sp.BytesRead != want ||
						int(sp.Creates) != runs || int(sp.Opens) != runs {
						t.Errorf("%s p=%d runEdges=%d %v: spill %+v for %d runs, want %d bytes each way",
							name, p, runEdges, mode, sp, runs, want)
					}
					names, err := fs.List()
					if err != nil {
						t.Fatal(err)
					}
					if len(names) != 0 {
						t.Errorf("%s p=%d runEdges=%d %v: run files left behind: %v", name, p, runEdges, mode, names)
					}
				}
			}
		}
	}
}

func TestSortExternalStorageFailureLeavesFSClean(t *testing.T) {
	l, _ := kron(t, 7, 4)
	writeBytes := int64(16 * l.Len())
	budgets := map[string]int64{
		"spill-fails":    writeBytes / 3,
		"readback-fails": writeBytes + 8,
	}
	for stage, budget := range budgets {
		for _, mode := range execModes {
			mem := vfs.NewMem()
			fs := vfs.NewFaulty(mem, budget)
			_, err := execSortExt(mode, l, 4, dist.ExtSortConfig{FS: fs, RunEdges: 64})
			if err == nil {
				t.Fatalf("%s %v: injected storage failure not surfaced", stage, mode)
			}
			if !strings.Contains(err.Error(), vfs.ErrInjected.Error()) {
				t.Fatalf("%s %v: unexpected error %v", stage, mode, err)
			}
			names, lerr := mem.List()
			if lerr != nil {
				t.Fatal(lerr)
			}
			if len(names) != 0 {
				t.Errorf("%s %v: failed sort left run files: %v", stage, mode, names)
			}
		}
	}
}

func TestSortExternalRejectsBadInput(t *testing.T) {
	for _, mode := range execModes {
		if _, err := execSortExt(mode, nil, 2, dist.ExtSortConfig{RunEdges: 64}); err == nil {
			t.Errorf("%v: nil list accepted", mode)
		}
		if _, err := execSortExt(mode, edge.NewList(0), 0, dist.ExtSortConfig{RunEdges: 64}); err == nil {
			t.Errorf("%v: p = 0 accepted", mode)
		}
		// A negative budget is neither regime: rejected, not read as
		// "in memory" or as a default.
		if _, err := execSortExt(mode, edge.NewList(0), 2, dist.ExtSortConfig{RunEdges: -1}); err == nil {
			t.Errorf("%v: negative run budget accepted", mode)
		}
	}
}

// TestSortTrivialInputs pins the small-input shortcuts of the one sort
// op: in memory, one processor or no edges sort locally and communicate
// nothing; out of core, no edges spill nothing while one processor still
// spills its runs.
func TestSortTrivialInputs(t *testing.T) {
	l, _ := kron(t, 6, 2)
	want := l.Clone()
	xsort.RadixByU(want)
	inMem, err := execSort(dist.Config{}, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !inMem.Sorted.Equal(want) || inMem.RunsPerRank != nil || inMem.Spill != (vfs.IOStats{}) {
		t.Fatalf("in-memory p=1: %+v", inMem)
	}
	empty, err := execSortExt(dist.ExecGoroutine, edge.NewList(0), 3, dist.ExtSortConfig{RunEdges: 8})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Sorted.Len() != 0 || len(empty.RunsPerRank) != 3 || empty.Spill != (vfs.IOStats{}) {
		t.Fatalf("out-of-core m=0: %+v", empty)
	}
	one, err := execSortExt(dist.ExecGoroutine, l, 1, dist.ExtSortConfig{RunEdges: l.Len()/3 + 1})
	if err != nil {
		t.Fatal(err)
	}
	if !one.Sorted.Equal(want) || len(one.RunsPerRank) != 1 || one.RunsPerRank[0] != 3 ||
		one.Spill.BytesWritten != int64(16*l.Len()) || one.Comm != (dist.CommStats{}) {
		t.Fatalf("out-of-core p=1: runs %v spill %+v comm %+v", one.RunsPerRank, one.Spill, one.Comm)
	}
}

// TestSortAdversarialBothModes extends the in-memory sort's bit-for-bit
// property to the adversarial inputs in both execution modes — the
// duplicate-heavy and presorted cases exercise the deduplicating splitter
// selection — with the socket ranks metering the goroutine ranks' bytes.
func TestSortAdversarialBothModes(t *testing.T) {
	inputs := adversarialInputs(t)
	for _, p := range procCounts {
		sess, err := dist.OpenSession(context.Background(), p, dist.SocketSpec{})
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range inputs {
			want := l.Clone()
			xsort.RadixByU(want)
			var ref *dist.SortResult
			for _, mode := range []dist.ExecMode{dist.ExecGoroutine, dist.ExecSocket} {
				spec := dist.Spec{Config: dist.Config{Mode: mode}, Op: dist.OpSort, Edges: l, Procs: p}
				if mode == dist.ExecSocket {
					spec.Session = sess
				}
				out, err := dist.Execute(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s p=%d %v: %v", name, p, mode, err)
				}
				res := out.Sort
				if !res.Sorted.Equal(want) {
					t.Fatalf("%s p=%d %v: output differs from serial radix sort", name, p, mode)
				}
				if ref == nil {
					ref = res
				} else if res.Comm != ref.Comm {
					t.Errorf("%s p=%d: modes meter different bytes: %+v vs %+v", name, p, res.Comm, ref.Comm)
				}
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSortExternalSpillCodec pins the configurable spill codec: results
// are bit-for-bit invariant in it, the result records its name, and the
// packed codec's sorted-run encoding spills measurably fewer bytes than
// the 16-byte fixed-width default.
func TestSortExternalSpillCodec(t *testing.T) {
	l, _ := kron(t, 8, 3)
	for _, p := range []int{1, 3, 4} {
		def, err := execSortExt(dist.ExecGoroutine, l, p, dist.ExtSortConfig{RunEdges: 300})
		if err != nil {
			t.Fatal(err)
		}
		if def.SpillCodec != "bin" {
			t.Errorf("p=%d: default spill codec %q, want bin", p, def.SpillCodec)
		}
		res, err := execSortExt(dist.ExecGoroutine, l, p, dist.ExtSortConfig{
			RunEdges: 300, Codec: fastio.Packed{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.SpillCodec != "packed" {
			t.Errorf("p=%d: spill codec %q, want packed", p, res.SpillCodec)
		}
		if !res.Sorted.Equal(def.Sorted) {
			t.Fatalf("p=%d: packed spill changed the sorted output", p)
		}
		if res.Comm != def.Comm {
			t.Errorf("p=%d: packed spill changed the comm record: %+v vs %+v", p, res.Comm, def.Comm)
		}
		if res.Spill.BytesWritten >= def.Spill.BytesWritten {
			t.Errorf("p=%d: packed spill wrote %d bytes, binary wrote %d",
				p, res.Spill.BytesWritten, def.Spill.BytesWritten)
		}
	}
}

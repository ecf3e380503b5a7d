package dist_test

// Property tests for the out-of-core distributed sample sort: for every
// processor count, every run-buffer size and both execution modes the
// output must equal the serial stable radix sort bit for bit, the
// communication record must equal the in-memory distributed sort's, the
// spill I/O must account for exactly one write and one read-back of every
// edge, and the run files must be gone afterwards — on failure paths too.

import (
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

var execModes = []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine}

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

func TestSortExternalModesAgreeOnSpillAndRuns(t *testing.T) {
	l, _ := kron(t, 8, 3)
	for _, p := range procCounts {
		for _, runEdges := range runEdgesChoices(l.Len(), p) {
			sim, err := execSortExt(dist.ExecSim, l, p, dist.ExtSortConfig{RunEdges: runEdges})
			if err != nil {
				t.Fatal(err)
			}
			gor, err := execSortExt(dist.ExecGoroutine, l, p, dist.ExtSortConfig{RunEdges: runEdges})
			if err != nil {
				t.Fatal(err)
			}
			if !sim.Sorted.Equal(gor.Sorted) {
				t.Fatalf("p=%d runEdges=%d: modes disagree on output", p, runEdges)
			}
			if sim.Comm != gor.Comm {
				t.Errorf("p=%d runEdges=%d: comm sim %+v, goroutine %+v", p, runEdges, sim.Comm, gor.Comm)
			}
			if sim.Spill != gor.Spill {
				t.Errorf("p=%d runEdges=%d: spill sim %+v, goroutine %+v", p, runEdges, sim.Spill, gor.Spill)
			}
			// Every rank spills ceil(chunk/runEdges) runs; both modes must
			// report the same counts, and every edge is written and read
			// back exactly once at 16 bytes.
			totalRuns := 0
			for r, runs := range sim.RunsPerRank {
				if runs != gor.RunsPerRank[r] {
					t.Fatalf("p=%d runEdges=%d: rank %d runs sim %d, goroutine %d",
						p, runEdges, r, runs, gor.RunsPerRank[r])
				}
				totalRuns += runs
			}
			wantBytes := int64(16 * l.Len())
			if sim.Spill.BytesWritten != wantBytes || sim.Spill.BytesRead != wantBytes {
				t.Errorf("p=%d runEdges=%d: spill I/O %+v, want %d bytes each way",
					p, runEdges, sim.Spill, wantBytes)
			}
			if int(sim.Spill.Creates) != totalRuns || int(sim.Spill.Opens) != totalRuns {
				t.Errorf("p=%d runEdges=%d: %d creates / %d opens for %d runs",
					p, runEdges, sim.Spill.Creates, sim.Spill.Opens, totalRuns)
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
		if _, err := execSortExt(mode, nil, 2, dist.ExtSortConfig{}); err == nil {
			t.Errorf("%v: nil list accepted", mode)
		}
		if _, err := execSortExt(mode, edge.NewList(0), 0, dist.ExtSortConfig{}); err == nil {
			t.Errorf("%v: p = 0 accepted", mode)
		}
	}
}

// TestSortAdversarialBothModes extends the in-memory sort's bit-for-bit
// property to the adversarial inputs in both execution modes — the
// duplicate-heavy and presorted cases exercise the deduplicating splitter
// selection.
func TestSortAdversarialBothModes(t *testing.T) {
	for name, l := range adversarialInputs(t) {
		want := l.Clone()
		xsort.RadixByU(want)
		for _, p := range procCounts {
			var ref *dist.SortResult
			for _, mode := range execModes {
				res, err := execSort(dist.Config{Mode: mode}, l, p)
				if err != nil {
					t.Fatalf("%s p=%d %v: %v", name, p, mode, err)
				}
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
	}
}

// TestSortExternalSpillCodec pins the configurable spill codec: results
// are bit-for-bit invariant in it, the result records its name, and the
// packed codec's sorted-run encoding spills measurably fewer bytes than
// the 16-byte fixed-width default.
func TestSortExternalSpillCodec(t *testing.T) {
	l, _ := kron(t, 8, 3)
	for _, p := range []int{1, 3, 4} {
		def, err := execSortExt(dist.ExecSim, l, p, dist.ExtSortConfig{RunEdges: 300})
		if err != nil {
			t.Fatal(err)
		}
		if def.SpillCodec != "bin" {
			t.Errorf("p=%d: default spill codec %q, want bin", p, def.SpillCodec)
		}
		for _, mode := range []dist.ExecMode{dist.ExecSim, dist.ExecGoroutine} {
			res, err := execSortExt(mode, l, p, dist.ExtSortConfig{
				RunEdges: 300, Codec: fastio.Packed{},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.SpillCodec != "packed" {
				t.Errorf("p=%d %v: spill codec %q, want packed", p, mode, res.SpillCodec)
			}
			if !res.Sorted.Equal(def.Sorted) {
				t.Fatalf("p=%d %v: packed spill changed the sorted output", p, mode)
			}
			if res.Comm != def.Comm {
				t.Errorf("p=%d %v: packed spill changed the comm record: %+v vs %+v", p, mode, res.Comm, def.Comm)
			}
			if res.Spill.BytesWritten >= def.Spill.BytesWritten {
				t.Errorf("p=%d %v: packed spill wrote %d bytes, binary wrote %d",
					p, mode, res.Spill.BytesWritten, def.Spill.BytesWritten)
			}
		}
	}
}

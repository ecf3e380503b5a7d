package dist

import (
	"testing"

	"repro/internal/edge"
)

// TestChooseSplittersDegenerate pins the splitter selection: quantiles
// stay frequency-weighted (skewed samples concentrate splitters in their
// hot ranges), but a quantile pick repeating an already-chosen splitter is
// skipped — repeated splitters would funnel nearly all edges into one
// bucket on tiny or duplicate-heavy samples.
func TestChooseSplittersDegenerate(t *testing.T) {
	cases := map[string]struct {
		samples []uint64
		p       int
		want    []uint64
	}{
		"duplicate-heavy": {
			// 16 samples, 4 distinct keys, p = 4: sorted quantile picks
			// land at indices 4, 8, 12 → 3, 7, 7; the repeated 7 is
			// skipped instead of emitted.
			samples: []uint64{7, 7, 7, 7, 7, 7, 1, 1, 1, 1, 3, 3, 3, 9, 9, 9},
			p:       4,
			want:    []uint64{3, 7},
		},
		"skewed-hot-range": {
			// 90% of the sample mass sits on keys 100 and 101: the
			// frequency-weighted quantiles split the hot range instead of
			// spreading evenly over [1, 101].
			samples: []uint64{1, 2, 100, 100, 100, 100, 100, 100, 100, 100, 100, 101, 101, 101, 101, 101},
			p:       4,
			want:    []uint64{100, 101},
		},
		"fewer-distinct-than-p": {
			// Sorted sample [2 2 5 5 5], p = 8: picks at indices 0,1,1,2,
			// 3,3,4 collapse to the two distinct keys.
			samples: []uint64{5, 2, 5, 2, 5},
			p:       8,
			want:    []uint64{2, 5},
		},
		"single-key": {
			samples: []uint64{4, 4, 4, 4},
			p:       5,
			want:    []uint64{4},
		},
		"empty": {
			samples: nil,
			p:       3,
			want:    []uint64{},
		},
		"plenty-distinct": {
			samples: []uint64{9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11},
			p:       4,
			want:    []uint64{3, 6, 9},
		},
	}
	for name, tc := range cases {
		got := chooseSplitters(append([]uint64(nil), tc.samples...), tc.p)
		if len(got) != len(tc.want) {
			t.Errorf("%s: splitters %v, want %v", name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: splitters %v, want %v", name, got, tc.want)
				break
			}
		}
		// Never more than p-1, always strictly increasing (distinct).
		if len(got) > tc.p-1 {
			t.Errorf("%s: %d splitters for p = %d", name, len(got), tc.p)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Errorf("%s: splitters not strictly increasing: %v", name, got)
			}
		}
	}
}

// TestPartitionChunkMatchesSerialScan: at every worker count the buckets
// are the serial scan's, edge for edge and in input order, on empty
// chunks, chunks shorter than 2·workers and long ones, with one bucket
// and with three.
func TestPartitionChunkMatchesSerialScan(t *testing.T) {
	long := edge.NewList(1000)
	for i := range 1000 {
		long.Append(uint64(i*7919%97), uint64(i))
	}
	chunks := []*edge.List{edge.NewList(0), long.Slice(0, 1), long.Slice(0, 5), long.Slice(0, 15), long}
	for _, splitters := range [][]uint64{nil, {30, 60}} {
		p := len(splitters) + 1
		for _, l := range chunks {
			want := make([]*edge.List, p)
			for d := range want {
				want[d] = edge.NewList(0)
			}
			for i := range l.Len() {
				want[destRank(splitters, l.U[i])].Append(l.U[i], l.V[i])
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got := partitionChunk(l, splitters, p, workers)
				if len(got) != p {
					t.Fatalf("p=%d m=%d w=%d: %d buckets", p, l.Len(), workers, len(got))
				}
				for d := range got {
					if !got[d].Equal(want[d]) {
						t.Errorf("p=%d m=%d w=%d: bucket %d is not the serial scan's", p, l.Len(), workers, d)
					}
				}
			}
		}
	}
}

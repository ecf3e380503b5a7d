package dist_test

// The kernel-3 bits, anchored.  The distributed schedule once had an
// independent second statement, a simulation, and property tests
// compared the two.  There is one rank program now, so what catches a
// changed reduction order is this table: digests recorded from that
// independent simulation at its last commit (c9b3b25), which both
// execution modes must still reproduce.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/pagerank"
)

// goldenRanks maps "op/p=N/policy" to the digest of the rank-vector bits,
// the CommStats fields and the iteration count of that run on the
// scale-8, seed-5 Kronecker graph (20 iterations, engine seed 5).
var goldenRanks = map[string]string{
	"run/p=1/ignore":         "d4d8cf6148dee8f7",
	"run/p=1/uniform":        "aebc6f7228aff15a",
	"run/p=1/teleport":       "93dc82f4f7f54274",
	"run/p=2/ignore":         "059b5117b6ac5815",
	"run/p=2/uniform":        "6ede4314d19655a5",
	"run/p=2/teleport":       "64ad7d9c66df5dcf",
	"run/p=3/ignore":         "1f73c6d40d021a50",
	"run/p=3/uniform":        "394eb0aab4f4f627",
	"run/p=3/teleport":       "ceced521841a00c2",
	"run/p=5/ignore":         "be8758d88d3da422",
	"run/p=5/uniform":        "342e1494e2a4e61f",
	"run/p=5/teleport":       "1c4d90c4d95915c8",
	"run/p=8/ignore":         "a061262dd0f3df68",
	"run/p=8/uniform":        "f7353f77cca717c6",
	"run/p=8/teleport":       "a80530c6e085c4fc",
	"run-matrix/p=2/uniform": "9935870b392b9875",
	"run-matrix/p=5/uniform": "d5eb8053bea1e173",
}

// rankDigest folds everything a reduction-order or schedule change would
// move: every bit of the rank vector, the five CommStats fields and the
// iteration count.
func rankDigest(res *dist.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range res.Rank {
		put(math.Float64bits(v))
	}
	c := res.Comm
	for _, v := range []uint64{c.AllToAllBytes, c.AllReduceCalls, c.AllReduceBytes, c.BroadcastCalls, c.BroadcastBytes, uint64(res.Iterations)} {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func TestDistRankGolden(t *testing.T) {
	l, n := executeGraph(t, 8)
	a := builtMatrix(t, 8)
	ctx := context.Background()
	for _, p := range procCounts {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			// One resident fabric serves every socket row at this p.
			sess, err := dist.OpenSession(ctx, p, dist.SocketSpec{})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			specs := map[string]dist.Spec{}
			for _, policy := range []pagerank.DanglingPolicy{pagerank.DanglingIgnore, pagerank.DanglingUniform, pagerank.DanglingTeleport} {
				specs[fmt.Sprintf("run/p=%d/%v", p, policy)] = dist.Spec{
					Op: dist.OpRun, Edges: l, N: n, Procs: p,
					PageRank: pagerank.Options{Seed: 5, Policy: policy},
				}
			}
			if p == 2 || p == 5 {
				specs[fmt.Sprintf("run-matrix/p=%d/uniform", p)] = dist.Spec{
					Op: dist.OpRunMatrix, Matrix: a, Procs: p,
					PageRank: pagerank.Options{Seed: 5, Dangling: true},
				}
			}
			for name, spec := range specs {
				for _, mode := range []dist.ExecMode{dist.ExecGoroutine, dist.ExecSocket} {
					spec.Mode, spec.Session = mode, nil
					if mode == dist.ExecSocket {
						spec.Session = sess
					}
					out, err := dist.Execute(ctx, spec)
					if err != nil {
						t.Fatalf("%s %v: %v", name, mode, err)
					}
					if got, want := rankDigest(out.Run), goldenRanks[name]; got != want {
						t.Errorf("%s %v: digest %s, recorded %q", name, mode, got, want)
					}
				}
			}
		})
	}
}

package kronecker

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/xrand"
)

// hashList is FNV-1a over the little-endian (U[i], V[i]) words in order.
func hashList(l *edge.List) uint64 {
	h := fnv.New64a()
	var w [16]byte
	for i := range l.U {
		binary.LittleEndian.PutUint64(w[:8], l.U[i])
		binary.LittleEndian.PutUint64(w[8:], l.V[i])
		h.Write(w[:])
	}
	return h.Sum64()
}

// goldenHashes were recorded on the commit before the integer-threshold
// sampler landed (the float-compare sampler, PR 16's tree).  Any sampler,
// relabel or shuffle change that alters one bit of one edge fails here.
var goldenHashes = map[string]uint64{
	"s6/seed1/perm/Generate":          0xe85a02e875c4ece4,
	"s6/seed1/perm/GenerateTo":        0xbc1f290632b1aaa4,
	"s6/seed1/perm/GenerateParallel3": 0x95bad16a39cbbee9,
	"s6/seed1/raw/Generate":           0x288d9fec7011481b,
	"s6/seed1/raw/GenerateTo":         0x288d9fec7011481b,
	"s6/seed1/raw/GenerateParallel3":  0x1f208f6ded96fc48,

	"s10/seed1/perm/Generate":          0xeda5c91f5837fe53,
	"s10/seed1/perm/GenerateTo":        0x7a2ab4fe29623503,
	"s10/seed1/perm/GenerateParallel3": 0x257fc806ac9dd429,
	"s10/seed1/raw/Generate":           0xea026a1bbc97f90f,
	"s10/seed1/raw/GenerateTo":         0xea026a1bbc97f90f,
	"s10/seed1/raw/GenerateParallel3":  0x5f2e2e015c6b630c,

	"s12/seed42/perm/Generate":          0x1f4c4287257c90cd,
	"s12/seed42/perm/GenerateTo":        0xdad4a6a22fc17a15,
	"s12/seed42/perm/GenerateParallel3": 0xb9268f9b92089e1c,
	"s12/seed42/raw/Generate":           0x880f31b6d2456c6f,
	"s12/seed42/raw/GenerateTo":         0x880f31b6d2456c6f,
	"s12/seed42/raw/GenerateParallel3":  0xea77ec84a20585b2,

	// A+B = 0.4 < 0.5: the thresholds times 2^53 are not integers, the
	// floor case of the integer predicate.
	"s10/seed7/init.25-.15-.35-.25/perm/Generate":          0x082fdad8570fb1d6,
	"s10/seed7/init.25-.15-.35-.25/perm/GenerateTo":        0x90418f864b2d31c6,
	"s10/seed7/init.25-.15-.35-.25/perm/GenerateParallel3": 0xca25de120224720c,
	"s10/seed7/init.25-.15-.35-.25/raw/Generate":           0xdc286218ca8490cc,
	"s10/seed7/init.25-.15-.35-.25/raw/GenerateTo":         0xdc286218ca8490cc,
	"s10/seed7/init.25-.15-.35-.25/raw/GenerateParallel3":  0x1651473772401892,
}

func TestGenerateGolden(t *testing.T) {
	type gcase struct {
		name string
		cfg  Config
	}
	cases := []gcase{
		{"s6/seed1", New(6, 1)},
		{"s10/seed1", New(10, 1)},
		{"s12/seed42", New(12, 42)},
		{"s10/seed7/init.25-.15-.35-.25", Config{Scale: 10, Seed: 7, A: 0.25, B: 0.15, C: 0.35, D: 0.25}.Defaults()},
	}
	seen := 0
	for _, c := range cases {
		for _, raw := range []bool{false, true} {
			cfg := c.cfg
			cfg.SkipPermutation = raw
			mode := "perm"
			if raw {
				mode = "raw"
			}
			gen := map[string]func() (*edge.List, error){
				"Generate": func() (*edge.List, error) { return Generate(cfg) },
				"GenerateTo": func() (*edge.List, error) {
					l := edge.NewList(0)
					return l, GenerateTo(cfg, fastio.NewListSink(l))
				},
				"GenerateParallel3": func() (*edge.List, error) { return GenerateParallel(cfg, 3) },
			}
			for _, fn := range []string{"Generate", "GenerateTo", "GenerateParallel3"} {
				key := fmt.Sprintf("%s/%s/%s", c.name, mode, fn)
				l, err := gen[fn]()
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				want, ok := goldenHashes[key]
				if !ok {
					t.Fatalf("%s: no golden recorded", key)
				}
				seen++
				if got := hashList(l); got != want {
					t.Errorf("%q: %#016x, golden %#016x", key, got, want)
				}
			}
		}
	}
	if seen != len(goldenHashes) {
		t.Errorf("checked %d goldens, table has %d", seen, len(goldenHashes))
	}
}

// TestThresholdMatchesFloatCompare pins the equivalence the sampler rests
// on: for a 53-bit k, float64(k)·2⁻⁵³ > p exactly when k > threshold(p).
func TestThresholdMatchesFloatCompare(t *testing.T) {
	check := func(p float64) {
		t.Helper()
		T := threshold(p)
		for _, k := range []uint64{T - 1, T, T + 1, 0, 1<<53 - 1} {
			if k >= 1<<53 { // T−1 wrapped, or T+1 past the 53-bit range
				continue
			}
			want := float64(k)*(1.0/(1<<53)) > p
			if got := (T-k)>>63 == 1; got != want {
				t.Fatalf("p = %v (T = %d), k = %d: integer predicate %v, float compare %v", p, T, k, got, want)
			}
		}
	}
	g := xrand.New(17)
	for i := 0; i < 200000; i++ {
		p := g.Float64()
		if p == 0 {
			continue
		}
		check(p)
		check(p * 0x1p-30)             // tiny p: ⌊p·2⁵³⌋ keeps few bits
		check(math.Nextafter(p, 1))    // neighbours of a 53-bit grid point are
		check(math.Nextafter(p/2, 0))  // off the grid: the ⌊·⌋ case
		check(float64(i%997+1) / 1000) // decimal fractions, as configs give them
	}
	for _, p := range []float64{DefaultA + DefaultB, DefaultA / (DefaultA + DefaultB), DefaultC / (1 - (DefaultA + DefaultB)),
		0.4, 0.625, 0.35 / (1 - 0.4), 0x1p-53, 1 - 0x1p-53, 1, 1.5, math.Inf(1)} {
		check(p)
	}
}

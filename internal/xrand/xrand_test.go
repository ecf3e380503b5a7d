package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the public-domain splitmix64.c.
	sm := NewSplitMix64(1234567)
	want := []uint64{
		0x599ed017fb08fc85,
		0x2c73f08458540fa5,
		0x883ebce5a3f27c77,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Errorf("SplitMix64 value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		m := Mix64(i)
		if prev, dup := seen[m]; dup {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[m] = i
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("same-seed generators diverge at step %d: %#x vs %#x", i, x, y)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if New(42).Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different-seed generators agree on %d of 1000 draws", same)
	}
}

// TestFillMatchesNext: Fill is Next in a loop — same values, and the same
// generator state afterwards, for batches of any length (none included).
func TestFillMatchesNext(t *testing.T) {
	a, b := New(42), New(42)
	for _, n := range []int{0, 1, 2, 31, 32, 2048, 5} {
		got := make([]uint64, n)
		a.Fill(got)
		for i, x := range got {
			if y := b.Next(); x != y {
				t.Fatalf("batch of %d: word %d is %#x, Next gives %#x", n, i, x, y)
			}
		}
	}
	if x, y := a.Next(), b.Next(); x != y {
		t.Fatalf("after Fill the generators diverge: %#x vs %#x", x, y)
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(7)
	for i := 0; i < 100000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	g := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of %d uniform draws = %v, want ~0.5", n, mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	g := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 16, 1000, 1 << 40} {
		for i := 0; i < 2000; i++ {
			if v := g.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	g := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[g.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from expectation %.0f", i, c, want)
		}
	}
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(-1) did not panic")
		}
	}()
	New(1).Intn(-1)
}

func TestJumpStreamsDisjoint(t *testing.T) {
	// After a jump, the next million draws must not collide with the
	// pre-jump stream prefix (they are 2^128 steps apart).
	a := New(5)
	prefix := make(map[uint64]bool, 4096)
	for i := 0; i < 4096; i++ {
		prefix[a.Next()] = true
	}
	b := New(5)
	b.Jump()
	coll := 0
	for i := 0; i < 4096; i++ {
		if prefix[b.Next()] {
			coll++
		}
	}
	// Random 64-bit values essentially never collide in 4096 draws.
	if coll > 0 {
		t.Errorf("jumped stream collides with origin stream %d times", coll)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	s0 := NewStream(77, 0)
	s1 := NewStream(77, 1)
	agree := 0
	for i := 0; i < 10000; i++ {
		if s0.Next() == s1.Next() {
			agree++
		}
	}
	if agree != 0 {
		t.Errorf("streams 0 and 1 agree on %d draws", agree)
	}
}

func TestNewStreamReproducible(t *testing.T) {
	a := NewStream(123, 3)
	b := NewStream(123, 3)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("NewStream is not reproducible")
		}
	}
}

func TestNewSeededDistinct(t *testing.T) {
	a := NewSeeded(1, 0)
	b := NewSeeded(1, 1)
	agree := 0
	for i := 0; i < 10000; i++ {
		if a.Next() == b.Next() {
			agree++
		}
	}
	if agree != 0 {
		t.Errorf("seeded streams agree on %d draws", agree)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v >= uint64(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	const n, trials = 8, 80000
	counts := make([]int, n)
	g := New(21)
	for i := 0; i < trials; i++ {
		counts[g.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Perm first element %d occurs %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestShuffleMatchesPermSemantics(t *testing.T) {
	g1, g2 := New(55), New(55)
	p := g1.Perm(20)
	q := make([]uint64, 20)
	for i := range q {
		q[i] = uint64(i)
	}
	g2.Shuffle(20, func(i, j int) { q[i], q[j] = q[j], q[i] })
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("Perm and Shuffle disagree at %d: %d vs %d", i, p[i], q[i])
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	g := New(99)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := g.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		x, y, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkXoshiroNext(b *testing.B) {
	g := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Next()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	g := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += g.Float64()
	}
	_ = sink
}

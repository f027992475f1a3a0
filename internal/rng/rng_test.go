package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d times in 64 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced degenerate stream: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical streams")
	}
}

func TestSplitLabeledOrderIndependent(t *testing.T) {
	// Same parent state + same label must give the same child stream.
	p1, p2 := New(9), New(9)
	a := p1.SplitLabeled("wd")
	b := p2.SplitLabeled("wd")
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("labeled splits from identical parents diverged")
		}
	}
	// Different labels from identical parents must differ.
	p3, p4 := New(9), New(9)
	c := p3.SplitLabeled("wd")
	d := p4.SplitLabeled("alloc")
	if c.Uint64() == d.Uint64() {
		t.Fatal("differently-labeled splits collided")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(8)
	const p, draws = 0.115, 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.005 {
		t.Fatalf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(11)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: sum %d != %d", got, sum)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(12)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(13)
	for _, mean := range []float64{0.5, 2, 10, 100} {
		const draws = 50000
		sum := 0
		for i := 0; i < draws; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / draws
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) empirical mean %v", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(14)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
	for i := 0; i < 1000; i++ {
		if r.Poisson(200) < 0 {
			t.Fatal("Poisson returned negative value")
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(15)
	const p, draws = 0.25, 50000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += r.Geometric(p)
	}
	got := float64(sum) / draws
	want := (1 - p) / p // mean failures before success
	if math.Abs(got-want) > want*0.05 {
		t.Fatalf("Geometric(%v) empirical mean %v, want ~%v", p, got, want)
	}
	if r.Geometric(1) != 0 {
		t.Fatal("Geometric(1) must be 0")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(16)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) returned %d", v)
		}
	}
}

func TestSplitLabeledSeq(t *testing.T) {
	// Children must match the equivalent manual SplitLabeled calls and
	// advance the parent identically.
	a, b := New(99), New(99)
	seq := a.SplitLabeledSeq("bank", 16)
	if len(seq) != 16 {
		t.Fatalf("got %d children", len(seq))
	}
	for i, c := range seq {
		want := b.SplitLabeled("bank-" + itoa(i))
		for j := 0; j < 8; j++ {
			if g, w := c.Uint64(), want.Uint64(); g != w {
				t.Fatalf("child %d draw %d: %#x != %#x", i, j, g, w)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("parents diverged after SplitLabeledSeq")
	}
	// Distinct children must be decorrelated.
	c0 := New(5).SplitLabeledSeq("bank", 2)
	if c0[0].Uint64() == c0[1].Uint64() {
		t.Fatal("bank-0 and bank-1 produced identical first draws")
	}
}

func TestItoa(t *testing.T) {
	for _, v := range []int{0, 1, 9, 10, 15, 123, 1 << 20} {
		if got, want := itoa(v), fmt.Sprint(v); got != want {
			t.Fatalf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBernoulli(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Bernoulli(0.115)
	}
}

// TestBernoulliExactScaling pins the divide-free Bernoulli to the
// definition it replaced, Float64() < p, draw for draw: at the smallest
// subnormal, 2^-53, 0.5, the largest p below 1, and random p.
func TestBernoulliExactScaling(t *testing.T) {
	ps := []float64{math.SmallestNonzeroFloat64, 0x1p-53, 0.5, math.Nextafter(1, 0)}
	pr := New(99)
	for i := 0; i < 64; i++ {
		ps = append(ps, pr.Float64(), pr.Float64()*1e-6)
	}
	for _, p := range ps {
		a, b := New(uint64(p*1e9)+1), New(uint64(p*1e9)+1)
		for i := 0; i < 20000; i++ {
			if got, want := a.Bernoulli(p), b.Float64() < p; got != want {
				t.Fatalf("p=%g draw %d: Bernoulli %t, Float64()<p %t", p, i, got, want)
			}
		}
	}
	// The scaled comparison agrees with the divided one at the threshold
	// draws themselves, where rounding would show.
	for _, p := range ps {
		k := uint64(p * (1 << 53)) // the integer draws just below/at/above p
		for _, u := range []uint64{k - 1, k, k + 1} {
			if u >= 1<<53 {
				continue
			}
			if got, want := float64(u) < p*(1<<53), float64(u)/(1<<53) < p; got != want {
				t.Fatalf("p=%g draw %d: scaled %t, divided %t", p, u, got, want)
			}
		}
	}
}

// geometricRef is Geometric as it was before it drew from a Stream: one
// Bernoulli call on the Rand per trial, with the same 1<<24 cap.
func geometricRef(r *Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	n := 0
	for !r.Bernoulli(p) {
		n++
		if n > 1<<24 {
			return n
		}
	}
	return n
}

// TestStreamMatchesRand: draws from a loaded Stream are the Rand's own
// draws, Stream.Bernoulli decides as Rand.Bernoulli does at every p (making
// the one draw Rand.Bernoulli skips at p <= 0 and p >= 1), and Store leaves
// the Rand where the same calls on it would.
func TestStreamMatchesRand(t *testing.T) {
	for _, p := range []float64{0, 1e-9, 0.3, 1 - 0x1p-53, 1} {
		a, b := New(5), New(5)
		s := b.Load()
		for i := 0; i < 10000; i++ {
			if i%3 == 0 {
				var got uint64
				if s, got = s.Uint64(); got != a.Uint64() {
					t.Fatalf("p=%v draw %d: Stream.Uint64 differs from Rand.Uint64", p, i)
				}
				continue
			}
			var got bool
			if s, got = s.Bernoulli(p); got != a.Bernoulli(p) {
				t.Fatalf("p=%v draw %d: Stream.Bernoulli differs from Rand.Bernoulli", p, i)
			}
			if p <= 0 || p >= 1 {
				a.Uint64()
			}
		}
		b.Store(s)
		if a.State() != b.State() {
			t.Fatalf("p=%v: stored state differs from the Rand's", p)
		}
	}
}

// TestGeometricMatchesPerCallReference: the stream-based Geometric returns
// the reference's values and leaves the Rand in the reference's state,
// including at p = 1e-9, where nearly every call stops at the 1<<24 cap.
func TestGeometricMatchesPerCallReference(t *testing.T) {
	for _, tc := range []struct {
		p     float64
		calls int
	}{{1e-9, 3}, {1e-3, 200}, {0.3, 5000}, {1 - 0x1p-53, 5000}, {1, 100}} {
		a, b := New(11), New(11)
		capped := 0
		for i := 0; i < tc.calls; i++ {
			want := geometricRef(a, tc.p)
			if got := b.Geometric(tc.p); got != want {
				t.Fatalf("p=%v call %d: Geometric %d, reference %d", tc.p, i, got, want)
			}
			if a.State() != b.State() {
				t.Fatalf("p=%v call %d: RNG state diverged from the reference", tc.p, i)
			}
			if want == 1<<24+1 {
				capped++
			}
		}
		if tc.p == 1e-9 && capped == 0 {
			t.Fatal("p=1e-9 never reached the 1<<24 cap")
		}
	}
	for _, g := range []func(*Rand, float64) int{(*Rand).Geometric, geometricRef} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Geometric(0) did not panic")
				}
			}()
			g(New(1), 0)
		}()
	}
}

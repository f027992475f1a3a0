package workload

import (
	"math"
	"testing"

	"sdpcm/internal/rng"
)

// legacyMutate is the original in-place volatility model, kept verbatim as
// the reference: DrawMutation+Apply must consume the RNG and transform the
// line identically, or every golden table silently shifts.
func legacyMutate(rnd *rng.Rand, prob float64, old [8]uint64) [8]uint64 {
	out := old
	changed := false
	for w := range out {
		for c := uint(0); c < 4; c++ {
			if rnd.Bernoulli(prob) {
				fresh := rnd.Uint64() & 0xffff
				out[w] = out[w]&^(uint64(0xffff)<<(16*c)) | fresh<<(16*c)
				changed = true
			}
		}
	}
	if !changed {
		i := rnd.Uint64n(32)
		w, c := i/4, uint(i%4)
		fresh := rnd.Uint64() & 0xffff
		out[w] = out[w]&^(uint64(0xffff)<<(16*c)) | fresh<<(16*c)
	}
	return out
}

func TestDrawMutationMatchesLegacyMutate(t *testing.T) {
	// NaN is neither <= 0 nor >= 1, so Rand.Bernoulli draws (and misses).
	for _, prob := range []float64{0, 1e-9, 0.001, 0.06, 0.3, 0.33, 1 - 0x1p-53, 1, math.NaN()} {
		a, b := rng.New(77), rng.New(77)
		old := [8]uint64{}
		for i := range old {
			old[i] = a.Uint64()
			b.Uint64()
		}
		for i := 0; i < 2000; i++ {
			want := legacyMutate(a, prob, old)
			got := DrawMutation(b, prob).Apply(old)
			if got != want {
				t.Fatalf("prob=%v iter %d: Draw+Apply %x != legacy %x", prob, i, got, want)
			}
			// RNG streams must stay in lockstep too.
			if a.State() != b.State() {
				t.Fatalf("prob=%v iter %d: RNG consumption diverged", prob, i)
			}
			old = want
		}
	}
}

func TestDrawMutationAlwaysChanges(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		if m := DrawMutation(r, 0); m.Mask == 0 {
			t.Fatal("mutation with empty mask")
		}
	}
}

// BenchmarkDrawMutation measures one write-back payload draw at lbm's
// chunk volatility. Pinned in the benchstat CI gate.
func BenchmarkDrawMutation(b *testing.B) {
	spec, err := ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DrawMutation(r, spec.WriteChunkChange)
	}
}

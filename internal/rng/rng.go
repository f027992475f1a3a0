// Package rng provides a small, deterministic, splittable random number
// generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// stochastic decision (write-disturbance flips, workload address streams,
// hard-error placement) must be replayable from a single root seed so that
// paper figures regenerate bit-identically across runs and machines. The
// standard library's math/rand is seedable but offers no principled way to
// derive independent substreams; this package implements xoshiro256** seeded
// via SplitMix64, with a Split operation for creating statistically
// independent child generators.
package rng

import "math/bits"

// Rand is a deterministic pseudo-random generator (xoshiro256**).
// It is not safe for concurrent use; use Split to give each goroutine or
// subsystem its own stream.
type Rand struct {
	s Stream
}

// Stream is a Rand's xoshiro256** state as a value. Load copies it out and
// Store writes it back; in between, a hot loop draws with
//
//	s, x = s.Uint64()
//	s, hit = s.Bernoulli(p)
//
// Because every draw returns the advanced state instead of writing through
// a pointer, the four words are never address-taken and the compiler keeps
// them in registers for the whole loop. The draws are exactly the Rand's:
// Rand.Uint64 is this Uint64, and Rand.Bernoulli decides as this Bernoulli.
//
// The contract: between r.Load() and r.Store(s) nothing else may draw from
// r. Such a draw would be overwritten by Store and replayed by the next
// user, silently duplicating part of the stream.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// Load returns a copy of the generator's state for a run of draws that
// ends with Store.
func (r *Rand) Load() Stream { return r.s }

// Store writes back a state obtained from Load and advanced since.
func (r *Rand) Store(s Stream) { r.s = s }

// Uint64 returns the stream advanced by one step and that step's 64
// uniformly distributed bits: the one definition of the xoshiro256** step.
func (s Stream) Uint64() (Stream, uint64) {
	s2, s3 := s.s2^s.s0, s.s3^s.s1
	return Stream{s.s0 ^ s3, s.s1 ^ s2, s2 ^ s.s1<<17, bits.RotateLeft64(s3, 45)},
		bits.RotateLeft64(s.s1*5, 7) * 9
}

// Bernoulli returns the advanced stream and true with probability p. It
// decides as Rand.Bernoulli does for every p, but always makes one draw:
// Rand.Bernoulli draws nothing at p <= 0 or p >= 1. A loop that must
// consume the stream exactly as Rand.Bernoulli calls would settles those
// two cases once, before it loads the stream. Drawing unconditionally keeps
// this within the compiler's inlining budget, and so in registers.
func (s Stream) Bernoulli(p float64) (Stream, bool) {
	s, x := s.Uint64()
	return s, below(x, p)
}

// below decides a Bernoulli(p) draw from x: Float64() < p without the
// divide. Scaling both sides by 2^53 is exact (the draw is an integer below
// 2^53, and p*2^53 cannot overflow or round), so every draw decides exactly
// as the definition does: never for p <= 0, always for p >= 1.
func below(x uint64, p float64) bool { return float64(x>>11) < p*(1<<53) }

// splitmix64 advances the given state and returns the next output.
// It is used for seeding so that nearby seeds produce unrelated states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Any seed, including zero, yields
// a valid non-degenerate state.
func New(seed uint64) *Rand {
	var s [4]uint64
	sm := seed
	for i := range s {
		s[i] = splitmix64(&sm)
	}
	// xoshiro requires a not-all-zero state; splitmix64 outputs make an
	// all-zero state astronomically unlikely, but SetState guards anyway.
	r := &Rand{}
	r.SetState(s)
	return r
}

// State returns the generator's internal xoshiro256** state, for
// checkpointing. SetState with the returned value reproduces the stream
// exactly from this point.
func (r *Rand) State() [4]uint64 { return [4]uint64{r.s.s0, r.s.s1, r.s.s2, r.s.s3} }

// SetState overwrites the generator's internal state with one previously
// obtained from State. An all-zero state is degenerate (xoshiro would emit
// zeros forever) and is rejected by falling back to the guard state New
// uses; State never returns one, so this only triggers on corrupt input.
func (r *Rand) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
	r.s = Stream{s[0], s[1], s[2], s[3]}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() (x uint64) {
	r.s, x = r.s.Uint64()
	return x
}

// Split returns a new generator whose stream is statistically independent of
// the parent's subsequent output. The parent is advanced.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// SplitLabeled returns a child generator derived from both the parent stream
// and a label, so that differently-labeled subsystems obtain unrelated
// streams even if created in a different order.
func (r *Rand) SplitLabeled(label string) *Rand {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

// SplitLabeledSeq derives n children labeled "<prefix>-0" .. "<prefix>-(n-1)",
// in index order. The parent advances exactly n times regardless of how the
// children are later consumed, so per-shard streams (e.g. one per PCM bank)
// stay identical across shard counts and scheduling orders.
func (r *Rand) SplitLabeledSeq(prefix string, n int) []*Rand {
	out := make([]*Rand, n)
	for i := range out {
		out[i] = r.SplitLabeled(prefix + "-" + itoa(i))
	}
	return out
}

// itoa formats a small non-negative int without importing strconv.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Float64 returns a uniform value in [0,1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// Uint64n returns a uniform value in [0,n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.boundedUint64(n)
}

// boundedUint64 implements Lemire's nearly-divisionless bounded generation.
func (r *Rand) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return below(r.Uint64(), p)
}

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// NormFloat64 returns a normally distributed value with mean 0 and stddev 1,
// using the polar (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		// ln(s) via math is fine; avoid importing math by series? No:
		// use the stdlib; clarity over cleverness.
		return u * sqrtNeg2LogOverS(s)
	}
}

// Poisson returns a Poisson-distributed value with the given mean using
// Knuth's method for small means and a normal approximation for large ones.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		v := mean + sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials. p is clamped to (0,1].
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	s := r.Load()
	n := 0
	for {
		var hit bool
		if s, hit = s.Bernoulli(p); hit {
			break
		}
		n++
		if n > 1<<24 { // defensive bound for absurdly small p
			break
		}
	}
	r.Store(s)
	return n
}

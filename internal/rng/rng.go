// Package rng provides a small, deterministic pseudo-random number
// generator for workload generation. All experiments in this repository are
// reproducible bit-for-bit across platforms and Go versions, which rules out
// math/rand (whose stream is not guaranteed stable across releases). The
// generator is splitmix64 (Steele, Lea & Flood), which is fast, has a full
// 2^64 period, and passes BigCrush when used as a 64-bit source.
package rng

import "math"

// Source is a deterministic splitmix64 random source. The zero value is a
// valid source seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int64n returns a uniform random int64 in [0, n). It panics if n <= 0.
func (s *Source) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Float64 returns a uniform random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Exp returns an exponentially distributed random value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Pareto returns a Pareto(shape alpha, scale xm) random value. For
// alpha <= 1 the distribution has infinite mean; workload generators use
// alpha in (1, 2] to model heavy-tailed bursts with finite mean but high
// variance, the regime the paper's "bursty nature of traffic" refers to.
func (s *Source) Pareto(alpha, xm float64) float64 {
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}

// Norm returns a normally distributed value with the given mean and
// standard deviation (Box-Muller).
func (s *Source) Norm(mean, stddev float64) float64 {
	u1 := s.Float64()
	u2 := s.Float64()
	if u1 <= 0 {
		u1 = math.Nextafter(0, 1)
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Split returns a new Source whose stream is independent of s (it consumes
// one value from s as the child's seed). Use it to give sub-generators their
// own streams so adding a generator does not perturb the others.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

package sim

import (
	"fmt"
	"math"
)

// RNG is a deterministic pseudo-random source (xoshiro256++ seeded through
// splitmix64). The simulator cannot use math/rand's global state: every model
// component owns an RNG forked from the run seed, so adding a component or
// reordering calls in one layer does not perturb the random streams of the
// others. That stream independence is what keeps A/B experiments (e.g.
// grant-based vs grant-free) paired.
type RNG struct {
	s         [4]uint64
	spare     float64
	haveSpare bool
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 is the stateless splitmix64 mix: the output of one splitmix64
// step whose state was x. Composing it derives decorrelated seeds from a
// base seed and an index (internal/sweep's per-shard seeds) without sharing
// any generator state between the derived streams.
func SplitMix64(x uint64) uint64 {
	return splitmix64(&x)
}

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r to the start of seed's stream, the one NewRNG(seed)
// returns. Every generator is seeded here.
func (r *RNG) Seed(seed uint64) {
	*r = RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Fork derives an independent generator from r, labelled by id. Forking with
// distinct ids yields streams that do not collide in practice (the label is
// mixed through splitmix64 together with fresh output of r).
func (r *RNG) Fork(id uint64) *RNG {
	f := &RNG{}
	r.ForkInto(f, id)
	return f
}

// ForkInto is Fork seeding dst in place, for generators held by value.
func (r *RNG) ForkInto(dst *RNG, id uint64) {
	dst.Seed(r.Uint64() ^ (id * 0x9e3779b97f4a7c15) ^ 0x5851f42d4c957f2d)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // bias negligible for n ≪ 2^64
}

// Uniform returns a uniform value in [lo,hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// UniformDuration returns a uniform Duration in [lo,hi).
func (r *RNG) UniformDuration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo))
}

// Norm returns a standard normal variate (polar Box–Muller, cached spare).
func (r *RNG) Norm() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// LogNormal is a log-normal distribution. Processing times in a
// non-real-time OS are well described by log-normals: strictly positive,
// right-skewed, occasional large values — exactly the behaviour the paper
// reports in Table 2 (std of the same order as the mean). Build one with
// NewLogNormal, which derives the underlying normal's µ and σ once, so a
// draw costs one Norm and one Exp.
type LogNormal struct{ mu, sigma float64 }

// NewLogNormal returns the log-normal with the given *resulting* mean and
// standard deviation (not the underlying normal's µ/σ). Both must be
// positive: a zero or negative one describes no log-normal.
func NewLogNormal(mean, std float64) LogNormal {
	if !(mean > 0 && std > 0) {
		panic(fmt.Sprintf("sim: log-normal needs a positive mean and std, got %v and %v", mean, std))
	}
	v := std * std
	m2 := mean * mean
	return LogNormal{mu: math.Log(m2 / math.Sqrt(v+m2)), sigma: math.Sqrt(math.Log(1 + v/m2))}
}

// Draw returns one variate, consuming one Norm from r.
func (d LogNormal) Draw(r *RNG) float64 {
	return math.Exp(d.mu + d.sigma*r.Norm())
}

// Exponential returns an exponential variate with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

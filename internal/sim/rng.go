package sim

import "math"

// RNG is a deterministic xoshiro256** pseudo-random generator. Each
// stochastic model component owns its own RNG (seeded from a master
// seed plus a component tag) so that adding a component never perturbs
// the random stream seen by the others.
type RNG struct {
	s [4]uint64
}

// splitmix64 expands a seed into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent generator from r and a tag. Forks with
// distinct tags produce decorrelated streams.
func (r *RNG) Fork(tag string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return NewRNG(r.Uint64() ^ h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
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

// Intn returns a uniform value in [0,n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	u1, u2 := r.uniformPair()
	return logNormal(mu, sigma, u1, u2)
}

// uniformPair draws Box–Muller's two uniforms, u1 redrawn while zero.
func (r *RNG) uniformPair() (u1, u2 float64) {
	u1 = r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	return u1, r.Float64()
}

// boxMuller maps two uniforms, u1 > 0, to a standard normal variate.
func boxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// logNormal returns exp(N(mu, sigma)) from Box–Muller's two uniforms.
func logNormal(mu, sigma, u1, u2 float64) float64 {
	return math.Exp(mu + sigma*boxMuller(u1, u2))
}

// Exp returns an exponential variate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

//fvlint:hotpath
package sim

import (
	"math"

	"fpgavirtio/internal/fvassert"
)

// Jitter's fast path. Jitter runs on every costed host CPU segment and,
// in poll mode, on every spin, so its exact chain —
//
//	f = clamp(math.Exp(0 + sigma*(math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2))), 0.5, 8)
//	Duration(float64(d) * f)
//
// is the simulator's largest single host cost. jitterFast computes the
// same Duration from the same two uniforms through small tables and
// low-degree polynomials, and accepts its result only when an error
// bound proves the exact chain truncates to the same value; otherwise
// Jitter runs the exact chain. Either way every draw returns exactly
// what the exact chain returns.
//
// Kernels, with their errors against the true functions:
//
//   - log(u1): u1 = 2^k·m, m ∈ [0.5, 1); the top 8 mantissa bits pick a
//     cell of width 2^-9 with centre c, and log u1 = k·ln2 + log c +
//     log1p(r), r = (m−c)/c, |r| < 2^-9. m−c is exact, so r is off by
//     at most 2^-52·|r|; log1p to degree 5 is off by |r|^6/6. For
//     u1 ≤ 1−2^-10 (no cancellation between log c and log1p r) the
//     relative error of log u1 is below 1e-15.
//   - cos(2πu2): reflected to u2 ∈ [0, 0.5], split at the nearest
//     multiple n/512 into a 257-entry cos/sin table and |θ| ≤ π/512,
//     with cos θ − 1 to θ⁴ (error θ⁶/720 < 1e-16) and sin θ to θ⁵.
//     Table, truncation and rounding leave an absolute error below
//     7e-16; the exact chain's own rounding of 2π·u2 and math.Cos add
//     as much again, so the two cosines differ by less than 1.5e-15.
//   - exp(x): x = (n/256)·ln2 + r, |r| ≤ ln2/512, 2^(n/256) from a
//     256-entry table and exp(r) to degree 4 (error |r|^5/120 < 4e-17);
//     relative error below 1e-15.
//
// With s = sqrt(−2 log u1) ≤ 8.58 (u1 ≥ 2^-53) and 0 < sigma ≤ 4, the
// fast x = sigma·s·cos differs from the exact chain's by at most
// |x|·2e-15 + sigma·s·1.5e-15, below 1e-13 wherever the fast path
// evaluates exp (|x| < ln 8) and below 1e-13 + 2e-15·|x| elsewhere.
// An absolute error in x is a relative error in f, so the fast y =
// float64(d)·f and the exact one differ by a relative 1e-13 including
// both chains' last roundings. Every check below uses the margin
// jitterMargin = 2^-36 ≈ 1.5e-11, more than 100 times that bound:
//
//   - sigma == 0 returns Duration(float64(d)), the exact chain's value
//     (exp(0) = 1), so Quiet runs never fall back.
//   - sigma outside (0, 4], or u1 > 1−2^-10 (about 0.1 % of draws):
//     fall back.
//   - x further than the margin past ln 0.5 or ln 8: the clamp decides
//     f, and the result is the exact chain's own expression.
//   - x within the margin of ln 0.5 or ln 8 (f within 2^-36 relative
//     of a clamp): fall back.
//   - otherwise y·(1−2^-36) and y·(1+2^-36) must truncate to the same
//     Duration, which then brackets the exact chain's result; if not,
//     or if |y| ≥ 2^52, fall back.
//
// Builds with -tags fvinvariants re-derive every accepted fast result
// through the exact chain and fail on any difference.

const (
	jitterMargin = 0x1p-36
	// fastSigmaMax bounds sigma·s, the factor on the cosine's error.
	fastSigmaMax = 4
	// fastU1Max keeps log u1 away from the cancellation near u1 = 1.
	fastU1Max = 1 - 0x1p-10

	ln05 = -math.Ln2
	ln8  = 3 * math.Ln2

	// roundShift rounds a float to an integer by addition: below 2^51
	// in magnitude, x + roundShift lands on an integer, and the low
	// bits of its representation are that integer in two's complement.
	roundShift = 0x1.8p52

	// ln2Hi + ln2Lo = ln 2; ln2Hi has 32 significant bits, so
	// n·ln2Hi/256 is exact for |n| < 2^21.
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10
)

// logTab holds, for each cell [0.5 + j/512, 0.5 + (j+1)/512), its
// centre c, 1/c and log c.
var logTab [256]struct{ c, invc, logc float64 }

// cosTab holds cos and sin of n·π/256 for n = 0..256.
var cosTab [257]struct{ cos, sin float64 }

// expTab holds 2^(j/256) for j = 0..255.
var expTab [256]float64

func init() {
	for j := range logTab {
		c := float64(512+2*j+1) / 1024
		logTab[j].c, logTab[j].invc, logTab[j].logc = c, 1/c, math.Log(c)
	}
	for n := range cosTab {
		cosTab[n].sin, cosTab[n].cos = math.Sincos(math.Pi * float64(n) / 256)
	}
	for j := range expTab {
		expTab[j] = math.Exp2(float64(j) / 256)
	}
}

// Jitter scales d by a lognormal factor with median 1 and the given
// sigma (in log space), clamped to [0.5x, 8x] so a single sample cannot
// dominate an experiment unrealistically. It draws two uniforms (u1
// redrawn while zero), exactly as LogNormal does.
func (r *RNG) Jitter(d Duration, sigma float64) Duration {
	u1, u2 := r.uniformPair()
	if out, ok := jitterFast(d, sigma, u1, u2); ok {
		if fvassert.Enabled {
			if want := jitterExact(d, sigma, u1, u2); out != want {
				fvassert.Failf("sim: Jitter fast path %d != exact %d (d=%d sigma=%v u1=%v u2=%v)",
					int64(out), int64(want), int64(d), sigma, u1, u2)
			}
		}
		return out
	}
	return jitterExact(d, sigma, u1, u2)
}

// jitterExact is Jitter's reference chain: LogNormal(0, sigma) on the
// given uniforms, clamped, scaling d.
func jitterExact(d Duration, sigma, u1, u2 float64) Duration {
	return scaleClamped(d, logNormal(0, sigma, u1, u2))
}

// scaleClamped scales d by f clamped to [0.5, 8].
func scaleClamped(d Duration, f float64) Duration {
	if f < 0.5 {
		f = 0.5
	}
	if f > 8 {
		f = 8
	}
	return Duration(float64(d) * f)
}

// jitterFast returns jitterExact(d, sigma, u1, u2) and true when the
// error bound in the comment above proves it, or false.
func jitterFast(d Duration, sigma, u1, u2 float64) (Duration, bool) {
	if sigma == 0 {
		return Duration(float64(d)), true
	}
	if !(sigma > 0 && sigma <= fastSigmaMax) || u1 > fastU1Max {
		return 0, false
	}
	x := sigma * (math.Sqrt(-2*fastLog(u1)) * fastCos2Pi(u2))
	switch {
	case x < ln05-jitterMargin:
		return scaleClamped(d, 0.5), true
	case x > ln8+jitterMargin:
		return scaleClamped(d, 8), true
	case x <= ln05+jitterMargin || x >= ln8-jitterMargin:
		return 0, false
	}
	y := float64(d) * fastExp(x)
	out := Duration(y * (1 - jitterMargin))
	if out != Duration(y*(1+jitterMargin)) || !(math.Abs(y) < 0x1p52) {
		return 0, false
	}
	return out, true
}

// fastLog returns log u for u ∈ [2^-53, 1−2^-10].
func fastLog(u float64) float64 {
	b := math.Float64bits(u)
	k := float64(int(b>>52) - 1022)
	m := math.Float64frombits(b&(1<<52-1) | 1022<<52)
	e := &logTab[b>>44&255]
	r := (m - e.c) * e.invc
	p := r + r*r*(-0.5+r*(1.0/3+r*(-0.25+r*0.2)))
	return k*math.Ln2 + e.logc + p
}

// fastCos2Pi returns cos(2πu) for u ∈ [0, 1).
func fastCos2Pi(u float64) float64 {
	t := min(u, 1-u) * 512
	n := int(t + 0.5)
	th := (t - float64(n)) * (math.Pi / 256)
	th2 := th * th
	cm1 := th2 * (-0.5 + th2*(1.0/24))
	sn := th + th*th2*(-1.0/6+th2*(1.0/120))
	e := &cosTab[n]
	return e.cos + (e.cos*cm1 - e.sin*sn)
}

// fastExp returns exp x for x ∈ [ln 0.5 − 2^-36, ln 8 + 2^-36].
func fastExp(x float64) float64 {
	kd := x*(256/math.Ln2) + roundShift
	n := int(int32(math.Float64bits(kd)))
	kd -= roundShift
	r := x - kd*(ln2Hi/256) - kd*(ln2Lo/256)
	p := 1 + (r + r*r*(0.5+r*(1.0/6+r*(1.0/24))))
	scale := math.Float64frombits(uint64(1023+(n>>8)) << 52)
	return expTab[n&255] * scale * p
}

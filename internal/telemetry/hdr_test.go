package telemetry

import (
	"math"
	"testing"
)

// Quantile estimates the q-th percentile (q in (0, 100]) by
// nearest-rank over the bucket counts, returning the bucket's upper
// bound clamped to the exact observed extremes — so Quantile(100)
// equals Max exactly, and every estimate is within 1/64 relative error
// of the true sample percentile. It is the oracle the bucketing tests
// read the histogram through.
func (h *HDRHistogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	// Same nearest-rank arithmetic (and float-epsilon guard) as
	// perf.Series.Percentile, so series and histogram views agree.
	rank := int64(math.Ceil(q/100*float64(h.count) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			v := hdrUpperBound(i)
			if v > h.max {
				v = h.max
			}
			if h.min >= 0 && v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// TestHDRIndexBounds: every value maps to a bucket whose bound range
// actually contains it, across the exact region, octave boundaries and
// large magnitudes.
func TestHDRIndexBounds(t *testing.T) {
	cases := []int64{0, 1, 5, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096,
		1 << 20, (1 << 20) + 7, 1<<40 + 12345, math.MaxInt64 / 2}
	for _, v := range cases {
		i := hdrIndex(v)
		ub := hdrUpperBound(i)
		if v > ub {
			t.Errorf("value %d maps to bucket %d with upper bound %d < value", v, i, ub)
		}
		if i > 0 {
			if lb := hdrUpperBound(i - 1); v <= lb {
				t.Errorf("value %d maps to bucket %d but fits bucket %d (bound %d)", v, i, i-1, lb)
			}
		}
		// Bounded relative error: the bucket width is at most 1/64 of
		// the value's magnitude.
		if v >= hdrSubBuckets {
			width := ub - hdrUpperBound(i-1)
			if float64(width) > float64(v)/float64(hdrSubBuckets)+1 {
				t.Errorf("value %d: bucket width %d exceeds 1/%d relative error", v, width, hdrSubBuckets)
			}
		}
	}
}

// TestHDRExactBelow64: the first octave records values exactly.
func TestHDRExactBelow64(t *testing.T) {
	h := NewHDRHistogram("test")
	for v := int64(0); v < hdrSubBuckets; v++ {
		h.Observe(v)
	}
	for q, want := range map[float64]int64{50: 31, 100: 63} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

// TestHDRQuantileAgainstSorted: quantile estimates stay within the
// documented 1/64 relative error of the true nearest-rank percentile
// for a deterministic long-tailed sample.
func TestHDRQuantileAgainstSorted(t *testing.T) {
	h := NewHDRHistogram("test")
	var vals []int64
	x := int64(1)
	for i := 0; i < 5000; i++ {
		// LCG spread over several orders of magnitude.
		x = (x*6364136223846793005 + 1442695040888963407) & math.MaxInt64
		v := 100 + x%1000000
		vals = append(vals, v)
		h.Observe(v)
	}
	sorted := append([]int64(nil), vals...)
	for i := 1; i < len(sorted); i++ { // insertion sort: no deps, fine at 5k
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, q := range []float64{50, 95, 99, 99.9, 100} {
		rank := int(math.Ceil(q / 100 * float64(len(sorted)) * (1 - 1e-12)))
		want := sorted[rank-1]
		got := h.Quantile(q)
		if relErr := math.Abs(float64(got-want)) / float64(want); relErr > 1.0/hdrSubBuckets {
			t.Errorf("Quantile(%v) = %d, true %d: relative error %.4f > 1/%d", q, got, want, relErr, hdrSubBuckets)
		}
	}
	if got := h.Quantile(100); got != h.Max() {
		t.Errorf("Quantile(100) = %d, want exact max %d", got, h.Max())
	}
}

// TestHDRObserveNoAlloc: the hot-path contract the always-on recorder
// relies on.
func TestHDRObserveNoAlloc(t *testing.T) {
	h := NewHDRHistogram("test")
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); avg != 0 {
		t.Errorf("Observe allocates %.1f per call, want 0", avg)
	}
}

// TestHDREmpty: an untouched histogram reads as zeros.
func TestHDREmpty(t *testing.T) {
	h := NewHDRHistogram("test")
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(99) != 0 {
		t.Errorf("empty histogram leaks state: count=%d min=%d max=%d q99=%d",
			h.Count(), h.Min(), h.Max(), h.Quantile(99))
	}
	if got := h.Buckets(); got != nil {
		t.Errorf("empty histogram has %d buckets, want none", len(got))
	}
}

// TestHDRNegativeClamp: negative observations clamp to zero rather
// than corrupting the bucket table.
func TestHDRNegativeClamp(t *testing.T) {
	h := NewHDRHistogram("test")
	h.Observe(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("negative observe: count=%d min=%d max=%d, want 1/0/0", h.Count(), h.Min(), h.Max())
	}
}

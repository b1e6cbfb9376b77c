package telemetry

import "math/bits"

// HDR histogram: log-bucketed latency recording with bounded relative
// error, replacing fixed-bucket histograms for per-layer latency. A
// fixed bucket table is only trustworthy near the bounds someone chose
// when the instrument was registered; at sweep scale the tails land in
// the +Inf overflow bucket and percentile estimates degrade to "bigger
// than the last bound". The HDR layout instead covers the full int64
// range with hdrSubBuckets linear sub-buckets per power of two, so
// every recorded value — median or p99.99 — is resolved to within
// 1/hdrSubBuckets (~1.6%) of its magnitude, with O(1) allocation-free
// Observe.
const (
	hdrSubBits    = 6
	hdrSubBuckets = 1 << hdrSubBits  // 64 linear sub-buckets per octave
	hdrBucketLen  = 64 << hdrSubBits // covers all of int64
)

// HDRHistogram counts non-negative int64 observations (nanoseconds, by
// convention) into log-spaced buckets with a bounded relative error of
// 1/64. The counts array is fixed at construction: Observe never
// allocates, so the instrument is safe on 0-alloc hot paths.
type HDRHistogram struct {
	name   string
	counts [hdrBucketLen]int64
	count  int64
	sum    float64
	min    int64
	max    int64
}

// NewHDRHistogram returns an unregistered HDR histogram. Most callers
// want Registry.HDR instead.
func NewHDRHistogram(name string) *HDRHistogram {
	return &HDRHistogram{name: name, min: -1}
}

// hdrIndex maps a non-negative value to its bucket index. Values below
// hdrSubBuckets are recorded exactly (bucket width 1); above that, the
// top hdrSubBits bits below the leading bit select a linear sub-bucket
// within the value's octave.
func hdrIndex(v int64) int {
	u := uint64(v)
	if u < hdrSubBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - hdrSubBits
	return ((exp + 1) << hdrSubBits) | int((u>>uint(exp))&(hdrSubBuckets-1))
}

// hdrUpperBound reports the largest value mapping to bucket index i —
// the inclusive upper bound exporters publish.
func hdrUpperBound(i int) int64 {
	octave := i >> hdrSubBits
	sub := int64(i & (hdrSubBuckets - 1))
	if octave == 0 {
		return sub
	}
	width := int64(1) << uint(octave-1)
	lower := (hdrSubBuckets + sub) * width
	return lower + width - 1
}

// Observe records one value. Negative values clamp to zero. Never
// allocates.
func (h *HDRHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[hdrIndex(v)]++
	h.count++
	h.sum += float64(v)
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports total observations; Sum their running total.
func (h *HDRHistogram) Count() int64 { return h.count }

// Sum reports the running total of observed values.
func (h *HDRHistogram) Sum() float64 { return h.sum }

// Min and Max report the exact extremes observed (0 when empty).
func (h *HDRHistogram) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max reports the exact maximum observed.
func (h *HDRHistogram) Max() int64 { return h.max }

// Name reports the registered name.
func (h *HDRHistogram) Name() string { return h.name }

// Buckets returns the non-empty buckets in ascending bound order as
// snapshot buckets (non-cumulative counts, inclusive upper bounds).
func (h *HDRHistogram) Buckets() []BucketSnapshot {
	var out []BucketSnapshot
	for i := range h.counts {
		if h.counts[i] != 0 {
			out = append(out, BucketSnapshot{UpperBound: float64(hdrUpperBound(i)), Count: h.counts[i]})
		}
	}
	return out
}

// Package perf provides the measurement machinery of the benchmark
// harness: latency series with exact percentiles (the paper reports
// 95/99/99.9% tails over 50,000 samples per point), mean/stddev for
// the breakdown figures, log-scale text histograms for the
// distribution figure, and table renderers that print paper-style rows.
package perf

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fpgavirtio/internal/sim"
)

// Series is a collection of latency samples.
type Series struct {
	name    string
	samples []sim.Duration
	sorted  bool
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// NewSeriesCap returns an empty named series with room for n samples,
// so a measurement loop of known length never reallocates the backing
// array mid-run.
func NewSeriesCap(name string, n int) *Series {
	return &Series{name: name, samples: make([]sim.Duration, 0, n)}
}

// Name reports the series name.
func (s *Series) Name() string { return s.name }

// Add appends one sample.
func (s *Series) Add(d sim.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = false
}

// Count reports the number of samples.
func (s *Series) Count() int { return len(s.samples) }

// Samples returns the raw samples (insertion order not preserved once
// a percentile has been computed).
func (s *Series) Samples() []sim.Duration { return s.samples }

func (s *Series) ensureSorted() {
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Series) Mean() sim.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, d := range s.samples {
		sum += float64(d)
	}
	return sim.Duration(sum / float64(len(s.samples)))
}

// Std returns the population standard deviation.
func (s *Series) Std() sim.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	m := float64(s.Mean())
	var sq float64
	for _, d := range s.samples {
		diff := float64(d) - m
		sq += diff * diff
	}
	return sim.Duration(math.Sqrt(sq / float64(n)))
}

// Percentile returns the nearest-rank percentile, p in (0, 100].
func (s *Series) Percentile(p float64) sim.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("perf: percentile %v out of range", p))
	}
	s.ensureSorted()
	// The epsilon guards against float error at exact boundaries
	// (99.9% of 1000 must rank 999, not 1000).
	rank := int(math.Ceil(p/100*float64(len(s.samples)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s.samples[rank-1]
}

// Min returns the smallest sample.
func (s *Series) Min() sim.Duration {
	s.ensureSorted()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[0]
}

// Max returns the largest sample.
func (s *Series) Max() sim.Duration {
	s.ensureSorted()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[len(s.samples)-1]
}

// Summary is the distribution snapshot used by the Fig. 3 reproduction.
type Summary struct {
	Name                               string
	Count                              int
	Mean, Std                          sim.Duration
	Min, P25, P50, P75, P95, P99, P999 sim.Duration
	Max                                sim.Duration
}

// Summarize computes the full snapshot.
func (s *Series) Summarize() Summary {
	return Summary{
		Name:  s.name,
		Count: len(s.samples),
		Mean:  s.Mean(),
		Std:   s.Std(),
		Min:   s.Min(),
		P25:   s.Percentile(25),
		P50:   s.Percentile(50),
		P75:   s.Percentile(75),
		P95:   s.Percentile(95),
		P99:   s.Percentile(99),
		P999:  s.Percentile(99.9),
		Max:   s.Max(),
	}
}

// Histogram renders a log-bucketed text histogram of the series, for
// the latency-distribution figure.
func (s *Series) Histogram(buckets int, width int) string {
	if len(s.samples) == 0 || buckets <= 0 {
		return "(empty)\n"
	}
	s.ensureSorted()
	lo := float64(s.Min())
	hi := float64(s.Max())
	if lo <= 0 {
		lo = 1
	}
	if hi <= lo {
		hi = lo * 1.0001
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	counts := make([]int, buckets)
	for _, d := range s.samples {
		v := float64(d)
		if v < lo {
			v = lo
		}
		b := int(float64(buckets) * (math.Log(v) - logLo) / (logHi - logLo))
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		edge := math.Exp(logLo + (logHi-logLo)*float64(i)/float64(buckets))
		bar := strings.Repeat("#", c*width/maxCount)
		fmt.Fprintf(&b, "%9.1fus |%-*s %d\n", edge/1e6, width, bar, c)
	}
	return b.String()
}

// Table renders rows of labelled values with aligned columns.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Us formats a duration as microseconds with one decimal, the unit the
// paper's tables use.
func Us(d sim.Duration) string { return fmt.Sprintf("%.1f", d.Microseconds()) }

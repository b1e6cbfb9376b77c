package perf

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"fpgavirtio/internal/sim"
)

func fill(vals ...int64) *Series {
	s := NewSeries("t")
	for _, v := range vals {
		s.Add(sim.Us(v))
	}
	return s
}

func TestMeanStd(t *testing.T) {
	s := fill(10, 20, 30, 40)
	if got := s.Mean(); got != sim.Us(25) {
		t.Fatalf("mean = %v", got)
	}
	// Population stddev of {10,20,30,40}us = sqrt(125)us.
	want := math.Sqrt(125) * 1000
	if got := s.Std().Nanoseconds(); math.Abs(got-want) > 1 {
		t.Fatalf("std = %vns, want %vns", got, want)
	}
	if NewSeries("e").Mean() != 0 || NewSeries("e").Std() != 0 {
		t.Fatal("empty series stats should be zero")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := NewSeries("p")
	for i := 1; i <= 100; i++ {
		s.Add(sim.Us(int64(i)))
	}
	cases := []struct {
		p    float64
		want int64
	}{
		{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != sim.Us(c.want) {
			t.Errorf("P%v = %v, want %vus", c.p, got, c.want)
		}
	}
}

func TestPercentileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries("q")
		for _, v := range raw {
			s.Add(sim.Duration(v))
		}
		p50 := s.Percentile(50)
		p95 := s.Percentile(95)
		p999 := s.Percentile(99.9)
		if !(s.Min() <= p50 && p50 <= p95 && p95 <= p999 && p999 <= s.Max()) {
			return false
		}
		// The percentile must be an actual sample.
		sorted := append([]uint32{}, raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		found := false
		for _, v := range sorted {
			if sim.Duration(v) == p95 {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileBadInputPanics(t *testing.T) {
	s := fill(1)
	for _, p := range []float64{0, -1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			s.Percentile(p)
		}()
	}
}

func TestSummarize(t *testing.T) {
	s := NewSeries("sum")
	for i := 1; i <= 1000; i++ {
		s.Add(sim.Us(int64(i)))
	}
	sum := s.Summarize()
	if sum.Count != 1000 || sum.Min != sim.Us(1) || sum.Max != sim.Us(1000) {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.P50 != sim.Us(500) || sum.P95 != sim.Us(950) || sum.P999 != sim.Us(999) {
		t.Fatalf("percentiles = %+v", sum)
	}
}

func TestAddAfterPercentile(t *testing.T) {
	s := fill(30, 10, 20)
	if s.Percentile(50) != sim.Us(20) {
		t.Fatal("median wrong")
	}
	s.Add(sim.Us(5))
	if s.Min() != sim.Us(5) {
		t.Fatal("Add after sort not re-sorted")
	}
}

func TestHistogramRenders(t *testing.T) {
	s := NewSeries("h")
	rng := sim.NewRNG(1)
	for i := 0; i < 5000; i++ {
		s.Add(sim.NsF(20000 * rng.LogNormal(0, 0.3)))
	}
	out := s.Histogram(10, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("histogram lines = %d", len(lines))
	}
	if !strings.Contains(out, "#") {
		t.Fatal("histogram has no bars")
	}
	if NewSeries("e").Histogram(5, 10) != "(empty)\n" {
		t.Fatal("empty histogram")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "Demo", Headers: []string{"payload", "p95"}}
	tab.AddRow("64", "35.1")
	tab.AddRow("1024", "57.8")
	out := tab.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "payload") {
		t.Fatal("missing title/header")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[4], "1024") {
		t.Fatalf("row misrendered: %q", lines[4])
	}
}

func TestUsFormat(t *testing.T) {
	if Us(sim.NsF(35123)) != "35.1" {
		t.Fatalf("Us = %q", Us(sim.NsF(35123)))
	}
}

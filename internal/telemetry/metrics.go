package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry holds named instruments. Instrument lookup is synchronized
// (boot code on different processes may register concurrently under
// the race detector); instrument updates themselves follow the
// simulator's strict hand-off discipline and need no locking.
//
// Lookups are get-or-create: asking twice for the same name returns
// the same instrument, so layers can share counters without plumbing.
// Registering one name as two different instrument kinds panics.
type Registry struct {
	mu       sync.Mutex //fvlint:lockrank metrics
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hdrs     map[string]*HDRHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hdrs:     make(map[string]*HDRHistogram),
	}
}

// Counter is a monotonically growing (or signed-accumulating) count.
type Counter struct {
	name string
	v    int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add accumulates delta (negative deltas are allowed: the jitter
// instrument records signed nanoseconds around the nominal cost).
func (c *Counter) Add(delta int64) { c.v += delta }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v }

// Name reports the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a point-in-time value.
type Gauge struct {
	name string
	v    float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add accumulates delta.
func (g *Gauge) Add(delta float64) { g.v += delta }

// Value reads the current value.
func (g *Gauge) Value() float64 { return g.v }

// Name reports the registered name.
func (g *Gauge) Name() string { return g.name }

// Counter returns the counter registered under name, creating it on
// first use. Safe to call on a nil registry: updates then go to a
// discarded instrument, so instrumented code never nil-checks.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{name: name}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil-registry safe like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{name: name}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// HDR returns the HDR histogram registered under name, creating it on
// first use. Nil-registry safe like Counter.
func (r *Registry) HDR(name string) *HDRHistogram {
	if r == nil {
		return NewHDRHistogram(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hdrs[name]; ok {
		return h
	}
	r.checkFree(name, "hdrhistogram")
	h := NewHDRHistogram(name)
	r.hdrs[name] = h
	return h
}

// checkFree panics if name is already taken by a different kind.
// Caller holds r.mu.
func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("telemetry: %q already registered as counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("telemetry: %q already registered as gauge", name))
	}
	if _, ok := r.hdrs[name]; ok && kind != "hdrhistogram" {
		panic(fmt.Sprintf("telemetry: %q already registered as hdrhistogram", name))
	}
}

// BucketSnapshot is one non-empty HDR histogram bucket in a snapshot.
type BucketSnapshot struct {
	// UpperBound is the bucket's inclusive upper bound, always finite.
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MarshalJSON writes the bound in %g form, so metric dumps keep their
// established layout (encoding/json would spell large bounds out in
// full).
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%g,"count":%d}`, b.UpperBound, b.Count)), nil
}

// MetricSnapshot is a point-in-time reading of one instrument.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Type    string           `json:"type"` // "counter" | "gauge" | "hdrhistogram"
	Value   float64          `json:"value,omitempty"`
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot reads every instrument, sorted by name for deterministic
// output. Nil-registry safe (returns nil).
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []MetricSnapshot
	for name, c := range r.counters {
		out = append(out, MetricSnapshot{Name: name, Type: "counter", Value: float64(c.v)})
	}
	for name, g := range r.gauges {
		out = append(out, MetricSnapshot{Name: name, Type: "gauge", Value: g.v})
	}
	for name, h := range r.hdrs {
		// Only the non-empty log buckets are exported: a full HDR table
		// is 4096 entries, nearly all zero for any one instrument.
		out = append(out, MetricSnapshot{
			Name: name, Type: "hdrhistogram",
			Count: h.count, Sum: h.sum, Buckets: h.Buckets(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

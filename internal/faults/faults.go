// Package faults implements deterministic fault injection for the
// simulated host-FPGA stack. A FaultPlan names a set of fault classes
// and, per class, either a probability per opportunity or a
// deterministic cadence (fire every Nth opportunity). An Injector
// evaluates the plan against a dedicated fork of the session RNG, so a
// seeded faulted run replays byte-identically, and a run with no plan
// consumes no randomness at all — the zero-fault path stays
// byte-identical to the fault-free build.
//
// Every layer that can fail polls the injector at its "opportunity"
// points (a TLP delivery, an MMIO completion, an interrupt raise, a
// doorbell, a DMA engine run). The injector is carried on the PCIe
// root complex, mirroring the telemetry registry: sessions install it
// once and every endpoint/driver reaches it through its bus handle.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Class identifies one injectable fault kind. It indexes the
// injector's per-class state directly; String is the spelling used in
// plan syntax and in the fault.<class>.injected metric name.
type Class uint8

const (
	// TLPDrop silently drops a downstream posted write at delivery:
	// the link transmitted it, the device never saw it. Models a
	// surprise-removed or flaky endpoint eating doorbells and
	// configuration writes.
	TLPDrop Class = iota
	// CplPoison poisons a read completion: the read returns all-ones
	// (PCIe poisoned/UR semantics) instead of register data.
	CplPoison
	// CplTimeout models a completion timeout: the read's request TLP
	// vanishes and the root complex synthesizes an all-ones
	// completion after the completion-timeout interval.
	CplTimeout
	// DMAReadErr corrupts the first byte of a device-initiated DMA
	// read completion (device reading host memory).
	DMAReadErr
	// DMAWriteErr drops one chunk of a device-initiated DMA write
	// (device writing host memory).
	DMAWriteErr
	// IRQDrop swallows an MSI-X interrupt: counted, never delivered.
	IRQDrop
	// IRQSpurious delivers an MSI-X interrupt twice.
	IRQSpurious
	// Stall opens a device stall window: for its duration every MMIO
	// read of the device completes all-ones and every MMIO write is
	// dropped.
	Stall
	// NeedsReset makes the virtio device set DEVICE_NEEDS_RESET and
	// raise a configuration-change interrupt instead of servicing a
	// doorbell.
	NeedsReset
	// EngineErr makes an XDMA engine abort a run with the descriptor
	// error status bit set instead of moving data.
	EngineErr
)

// numClasses is the number of fault classes.
const numClasses = int(EngineErr) + 1

// Classes lists every fault class in canonical order.
var Classes = []Class{
	TLPDrop, CplPoison, CplTimeout, DMAReadErr, DMAWriteErr,
	IRQDrop, IRQSpurious, Stall, NeedsReset, EngineErr,
}

var classNames = [numClasses]string{
	TLPDrop:     "tlpdrop",
	CplPoison:   "cplpoison",
	CplTimeout:  "cpltimeout",
	DMAReadErr:  "dmarderr",
	DMAWriteErr: "dmawrerr",
	IRQDrop:     "irqdrop",
	IRQSpurious: "irqspurious",
	Stall:       "stall",
	NeedsReset:  "needsreset",
	EngineErr:   "engineerr",
}

// String returns the class's plan-syntax spelling.
func (c Class) String() string {
	if int(c) < numClasses {
		return classNames[c]
	}
	return "Class(" + strconv.Itoa(int(c)) + ")"
}

// parseClass resolves a plan-syntax spelling to its class.
func parseClass(name string) (Class, bool) {
	for _, c := range Classes {
		if classNames[c] == name {
			return c, true
		}
	}
	return 0, false
}

// Rule arms one fault class. A rule fires on an opportunity when the
// opportunity index (counted per class, 1-based, after skipping the
// first After opportunities) is a multiple of Every, or — when Prob is
// set — with probability Prob drawn from the injector RNG. Count
// bounds the total number of fires (0 = unlimited).
type Rule struct {
	Class Class
	Prob  float64 // probability per opportunity (0 = cadence only)
	Every int     // deterministic cadence (0 = probability only)
	After int     // opportunities to skip before arming
	Count int     // maximum fires, 0 = unlimited
}

// Plan is a parsed fault plan: one rule per class.
type Plan struct {
	Rules []Rule
}

// Parse parses the textual plan format: comma-separated rules, each
//
//	class[:p=<prob>][:every=<n>][:after=<n>][:count=<n>]
//
// e.g. "needsreset:every=150:count=3,irqdrop:p=0.002". Each rule must
// set p or every (or both); a class may appear at most once. An empty
// string parses to nil (no plan).
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &Plan{}
	seen := map[Class]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("faults: empty rule in plan %q", s)
		}
		fields := strings.Split(part, ":")
		c, ok := parseClass(fields[0])
		if !ok {
			return nil, fmt.Errorf("faults: unknown fault class %q (have %s)", fields[0], classList())
		}
		r := Rule{Class: c}
		if seen[r.Class] {
			return nil, fmt.Errorf("faults: class %q appears twice", r.Class)
		}
		seen[r.Class] = true
		for _, opt := range fields[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok || v == "" {
				return nil, fmt.Errorf("faults: malformed option %q in rule %q", opt, part)
			}
			switch k {
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || math.IsNaN(f) || f <= 0 || f > 1 {
					return nil, fmt.Errorf("faults: p=%q must be a probability in (0,1]", v)
				}
				r.Prob = f
			case "every", "after", "count":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 || (k == "every" && n == 0) {
					return nil, fmt.Errorf("faults: %s=%q must be a non-negative integer", k, v)
				}
				switch k {
				case "every":
					r.Every = n
				case "after":
					r.After = n
				case "count":
					r.Count = n
				}
			default:
				return nil, fmt.Errorf("faults: unknown option %q in rule %q", k, part)
			}
		}
		if r.Prob == 0 && r.Every == 0 {
			return nil, fmt.Errorf("faults: rule %q needs p= or every=", part)
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

func classList() string {
	return strings.Join(classNames[:], "|")
}

// String renders the plan back into the Parse format (rules in input
// order). Parse(p.String()) round-trips.
func (p *Plan) String() string {
	if p == nil || len(p.Rules) == 0 {
		return ""
	}
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(r.Class.String())
		if r.Prob > 0 {
			fmt.Fprintf(&b, ":p=%s", strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.Every > 0 {
			fmt.Fprintf(&b, ":every=%d", r.Every)
		}
		if r.After > 0 {
			fmt.Fprintf(&b, ":after=%d", r.After)
		}
		if r.Count > 0 {
			fmt.Fprintf(&b, ":count=%d", r.Count)
		}
	}
	return b.String()
}

// ruleState tracks one armed class at run time.
type ruleState struct {
	rule    Rule
	opps    int64 // opportunities seen past After
	skipped int64 // opportunities still inside After
	fired   int64
	counter *telemetry.Counter
}

// Injector evaluates a plan. A nil *Injector is the zero-fault path:
// every method is nil-safe and Fire reports false without consuming
// randomness, allocating, or touching metrics — hot paths call it
// unconditionally.
type Injector struct {
	plan  *Plan
	rng   *sim.RNG
	armed [numClasses]*ruleState // indexed by Class; nil = unarmed
	total *telemetry.Counter
}

// NewInjector arms plan against rng, registering the per-class
// fault.<class>.injected counters and the fault.injected.total counter
// in reg. A nil or empty plan returns nil (the zero-fault injector).
func NewInjector(plan *Plan, rng *sim.RNG, reg *telemetry.Registry) *Injector {
	if plan == nil || len(plan.Rules) == 0 {
		return nil
	}
	inj := &Injector{
		plan:  plan,
		rng:   rng,
		total: reg.Counter(telemetry.MetricFaultsInjected),
	}
	for _, r := range plan.Rules {
		inj.armed[r.Class] = &ruleState{
			rule:    r,
			counter: reg.Counter(telemetry.MetricFaultInjected(r.Class.String())),
		}
	}
	return inj
}

// Plan returns the armed plan (nil on the zero-fault injector).
func (inj *Injector) Plan() *Plan {
	if inj == nil {
		return nil
	}
	return inj.plan
}

// state returns c's armed rule state, or nil when c is unarmed or inj
// is the zero-fault injector.
func (inj *Injector) state(c Class) *ruleState {
	if inj == nil || int(c) >= numClasses {
		return nil
	}
	return inj.armed[c]
}

// Enabled reports whether a rule is armed for class. Nil-safe.
func (inj *Injector) Enabled(c Class) bool { return inj.state(c) != nil }

// Fire records one opportunity for class and reports whether the fault
// fires. Nil-safe: a nil injector always reports false and has no side
// effects. Randomness is consumed only by probability rules, so
// cadence-only plans are trivially schedule-independent.
func (inj *Injector) Fire(c Class) bool {
	st := inj.state(c)
	if st == nil {
		return false
	}
	if st.skipped < int64(st.rule.After) {
		st.skipped++
		return false
	}
	st.opps++
	if st.rule.Count > 0 && st.fired >= int64(st.rule.Count) {
		return false
	}
	fire := st.rule.Every > 0 && st.opps%int64(st.rule.Every) == 0
	if !fire && st.rule.Prob > 0 {
		fire = inj.rng.Bool(st.rule.Prob)
	}
	if !fire {
		return false
	}
	st.fired++
	st.counter.Inc()
	inj.total.Inc()
	return true
}

// Total reports the number of faults injected so far. Nil-safe.
// Sessions expose it so experiments can flag samples whose measurement
// overlapped an injection.
func (inj *Injector) Total() int64 {
	if inj == nil {
		return 0
	}
	return inj.total.Value()
}

// Injected reports the fire count for one class. Nil-safe.
func (inj *Injector) Injected(c Class) int64 {
	st := inj.state(c)
	if st == nil {
		return 0
	}
	return st.fired
}

// Summary returns the per-class fire counts for every armed class,
// keyed by class name. Nil-safe (returns nil).
func (inj *Injector) Summary() map[string]int64 {
	if inj == nil {
		return nil
	}
	out := make(map[string]int64, len(inj.plan.Rules))
	for _, r := range inj.plan.Rules {
		out[r.Class.String()] = inj.armed[r.Class].fired
	}
	return out
}

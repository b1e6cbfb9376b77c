package faults

import (
	"strings"
	"testing"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"needsreset:every=150:count=3",
		"irqdrop:p=0.002",
		"tlpdrop:p=0.01:count=5",
		"engineerr:every=90:after=10:count=4",
		"needsreset:every=120:count=4,engineerr:every=90:count=4,irqdrop:every=150:count=6",
		"cplpoison:p=0.5:every=7:after=2:count=9",
	}
	for _, in := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		out := p.String()
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", in, out, err)
		}
		if out2 := p2.String(); out2 != out {
			t.Errorf("String not fixed-point: %q -> %q -> %q", in, out, out2)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	for _, in := range []string{"", "  ", "\t"} {
		p, err := Parse(in)
		if err != nil || p != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", in, p, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogusclass:every=3",           // unknown class
		"needsreset",                   // no p/every
		"needsreset:after=5",           // after alone does not arm
		"irqdrop:p=0",                  // p out of range
		"irqdrop:p=1.5",                // p out of range
		"irqdrop:p=x",                  // p not a number
		"irqdrop:every=0",              // every must be positive
		"irqdrop:every=-2",             // negative
		"irqdrop:every",                // missing =value
		"irqdrop:every=",               // empty value
		"irqdrop:weird=3",              // unknown option
		"irqdrop:p=0.1,irqdrop:p=0.2",  // duplicate class
		"irqdrop:p=0.1,,tlpdrop:p=0.1", // empty rule
		",",                            // only separators
	}
	for _, in := range cases {
		if p, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %v, want error", in, p)
		}
	}
}

func TestParseAllClasses(t *testing.T) {
	names := make([]string, len(Classes))
	for i, c := range Classes {
		names[i] = c.String() + ":every=10"
	}
	p, err := Parse(strings.Join(names, ","))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != len(Classes) {
		t.Fatalf("parsed %d rules, want %d", len(p.Rules), len(Classes))
	}
}

func newTestInjector(t *testing.T, plan string, seed uint64) *Injector {
	t.Helper()
	p, err := Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	return NewInjector(p, sim.NewRNG(seed).Fork("faults"), telemetry.NewRegistry())
}

func TestNilInjector(t *testing.T) {
	var inj *Injector
	if inj.Fire(NeedsReset) {
		t.Error("nil injector fired")
	}
	if inj.Total() != 0 || inj.Injected(IRQDrop) != 0 {
		t.Error("nil injector has counts")
	}
	if inj.Enabled(TLPDrop) || inj.Summary() != nil || inj.Plan() != nil {
		t.Error("nil injector reports armed state")
	}
	if NewInjector(nil, sim.NewRNG(1), telemetry.NewRegistry()) != nil {
		t.Error("NewInjector(nil plan) != nil")
	}
}

func TestFireEvery(t *testing.T) {
	inj := newTestInjector(t, "irqdrop:every=3", 1)
	var fired []int
	for i := 1; i <= 10; i++ {
		if inj.Fire(IRQDrop) {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	if inj.Total() != 3 || inj.Injected(IRQDrop) != 3 {
		t.Errorf("Total=%d Injected=%d, want 3", inj.Total(), inj.Injected(IRQDrop))
	}
}

func TestFireAfterAndCount(t *testing.T) {
	inj := newTestInjector(t, "engineerr:every=2:after=5:count=2", 1)
	var fired []int
	for i := 1; i <= 20; i++ {
		if inj.Fire(EngineErr) {
			fired = append(fired, i)
		}
	}
	// Opportunities 1..5 are skipped; the per-class counter then runs
	// 1,2,3,... so fires land on absolute opportunities 7 and 9, capped
	// at count=2.
	want := []int{7, 9}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

func TestFireUnarmedClass(t *testing.T) {
	inj := newTestInjector(t, "irqdrop:every=1", 1)
	if inj.Fire(TLPDrop) {
		t.Error("unarmed class fired")
	}
	if !inj.Enabled(IRQDrop) || inj.Enabled(TLPDrop) {
		t.Error("Enabled wrong")
	}
}

func TestFireProbDeterministic(t *testing.T) {
	run := func() []int {
		inj := newTestInjector(t, "tlpdrop:p=0.25", 42)
		var fired []int
		for i := 1; i <= 400; i++ {
			if inj.Fire(TLPDrop) {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at fire %d: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) == 0 || len(a) == 400 {
		t.Fatalf("p=0.25 over 400 opportunities fired %d times", len(a))
	}
}

func TestCadenceConsumesNoRandomness(t *testing.T) {
	// Two injectors sharing one RNG: if the cadence rule consumed
	// randomness, the probability stream of the second would shift.
	rng := sim.NewRNG(7).Fork("faults")
	reg := telemetry.NewRegistry()
	plan, err := Parse("irqdrop:every=2")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, rng, reg)
	before := rng.Float64()
	_ = before
	for i := 0; i < 100; i++ {
		inj.Fire(IRQDrop)
	}
	after := rng.Float64()
	rng2 := sim.NewRNG(7).Fork("faults")
	rng2.Float64()
	if want := rng2.Float64(); after != want {
		t.Errorf("cadence rule consumed RNG: next draw %v, want %v", after, want)
	}
}

func TestSummaryAndArmed(t *testing.T) {
	inj := newTestInjector(t, "needsreset:every=2:count=1,irqdrop:every=3", 1)
	for i := 0; i < 6; i++ {
		inj.Fire(NeedsReset)
		inj.Fire(IRQDrop)
	}
	sum := inj.Summary()
	if sum["needsreset"] != 1 || sum["irqdrop"] != 2 {
		t.Errorf("summary = %v", sum)
	}
	if !inj.Enabled(IRQDrop) || !inj.Enabled(NeedsReset) || inj.Enabled(TLPDrop) {
		t.Errorf("armed classes: irqdrop %v needsreset %v tlpdrop %v, want true true false",
			inj.Enabled(IRQDrop), inj.Enabled(NeedsReset), inj.Enabled(TLPDrop))
	}
	if got := inj.Plan().String(); got != "needsreset:every=2:count=1,irqdrop:every=3" {
		t.Errorf("plan = %q", got)
	}
}

// FuzzFaultPlanParse checks that Parse never panics and that every
// accepted plan round-trips through String to an equal canonical form.
func FuzzFaultPlanParse(f *testing.F) {
	seeds := []string{
		"",
		"needsreset:every=150:count=3",
		"irqdrop:p=0.002",
		"tlpdrop:p=0.01:count=5,stall:every=1000",
		"cplpoison:p=0.5:every=7:after=2:count=9",
		"engineerr:every=90,dmarderr:p=0.001,dmawrerr:p=0.001",
		"cpltimeout:every=33:after=4",
		"irqspurious:p=1",
		"needsreset:every=0",
		"bogus:p=0.5",
		"irqdrop:p=",
		"irqdrop:p=NaN",
		"irqdrop:p=1e309",
		",,,",
		"needsreset:every=150:count=3,needsreset:p=0.1",
		strings.Repeat("irqdrop:p=0.1,", 40),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		if p == nil {
			if strings.TrimSpace(s) != "" {
				t.Fatalf("Parse(%q) = nil plan without error", s)
			}
			return
		}
		out := p.String()
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) accepted but String %q rejected: %v", s, out, err)
		}
		if out2 := p2.String(); out2 != out {
			t.Fatalf("String not canonical: %q -> %q -> %q", s, out, out2)
		}
		// An accepted plan must arm cleanly.
		inj := NewInjector(p, sim.NewRNG(1).Fork("faults"), telemetry.NewRegistry())
		if inj == nil {
			t.Fatalf("NewInjector returned nil for accepted plan %q", s)
		}
		for _, r := range p.Rules {
			if !inj.Enabled(r.Class) {
				t.Fatalf("class %q parsed but not armed", r.Class)
			}
			inj.Fire(r.Class)
		}
	})
}

package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDurationUnits(t *testing.T) {
	if Ns(1) != 1000 {
		t.Fatalf("Ns(1) = %d, want 1000", Ns(1))
	}
	if Us(1) != 1000*Ns(1) {
		t.Fatalf("Us(1) = %d", Us(1))
	}
	if Ms(1) != 1000*Us(1) {
		t.Fatalf("Ms(1) = %d", Ms(1))
	}
	if got := NsF(1.5); got != 1500 {
		t.Fatalf("NsF(1.5) = %d, want 1500", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{Ns(8), "8ns"},
		{Us(3), "3us"},
		{Ms(2), "2ms"},
		{-Ns(8), "-8ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeQuantize(t *testing.T) {
	step := Ns(8)
	for _, tc := range []struct{ in, want Time }{
		{0, 0},
		{Time(Ns(7)), 0},
		{Time(Ns(8)), Time(Ns(8))},
		{Time(Ns(15)), Time(Ns(8))},
		{Time(Ns(16)), Time(Ns(16))},
	} {
		if got := tc.in.Quantize(step); got != tc.want {
			t.Errorf("Quantize(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestQuantizeProperty(t *testing.T) {
	f := func(raw uint32) bool {
		tm := Time(raw)
		q := tm.Quantize(Ns(8))
		return q <= tm && tm-q < Time(Ns(8)) && q%Time(Ns(8)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []string
	s.After(Ns(20), "c", func() { order = append(order, "c") })
	s.After(Ns(10), "a", func() { order = append(order, "a") })
	s.After(Ns(10), "b", func() { order = append(order, "b") }) // same time: FIFO
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != Time(Ns(20)) {
		t.Fatalf("final time %v, want 20ns", s.Now())
	}
}

func TestEventCancel(t *testing.T) {
	s := New()
	ran := false
	id := s.After(Ns(5), "x", func() { ran = true })
	id.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.After(Ns(10), "adv", func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(Time(Ns(5)), "past", func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []int
	for i := 1; i <= 5; i++ {
		n := i
		s.After(Ns(int64(10*i)), "e", func() { fired = append(fired, n) })
	}
	s.RunUntil(Time(Ns(30)))
	if len(fired) != 3 {
		t.Fatalf("fired %v, want first 3", fired)
	}
	if s.Now() != Time(Ns(30)) {
		t.Fatalf("now = %v, want 30ns", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Fatalf("after Run fired %v, want all 5", fired)
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 0; i < 10; i++ {
		s.After(Ns(int64(i+1)), "e", func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestProcSleep(t *testing.T) {
	s := New()
	var marks []Time
	s.Go("p", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(Us(1))
		marks = append(marks, p.Now())
		p.Sleep(Us(2))
		marks = append(marks, p.Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, Time(Us(1)), Time(Us(3))}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New()
	var order []string
	s.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(Ns(10))
		order = append(order, "a1")
		p.Sleep(Ns(20))
		order = append(order, "a2")
	})
	s.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(Ns(15))
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	s := New()
	c := NewCond(s, "c")
	var got []string
	for _, n := range []string{"w1", "w2", "w3"} {
		name := n
		s.Go(name, func(p *Proc) {
			c.Wait(p)
			got = append(got, name)
		})
	}
	s.After(Us(1), "sig", func() { c.Signal() })
	s.After(Us(2), "bcast", func() { c.Broadcast() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1", "w2", "w3"} // FIFO
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTriggerBeforeAndAfterFire(t *testing.T) {
	s := New()
	tr := NewTrigger(s, "done")
	var at1, at2 Time
	s.Go("early", func(p *Proc) {
		tr.Wait(p)
		at1 = p.Now()
	})
	s.After(Us(5), "fire", func() { tr.Fire() })
	s.GoAfter(Us(10), "late", func(p *Proc) {
		tr.Wait(p) // already fired: returns immediately
		at2 = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != Time(Us(5)) {
		t.Fatalf("early woke at %v, want 5us", at1)
	}
	if at2 != Time(Us(10)) {
		t.Fatalf("late woke at %v, want 10us", at2)
	}
	if !tr.fired {
		t.Fatal("trigger not marked fired")
	}
}

func TestTriggerDoubleFirePanics(t *testing.T) {
	s := New()
	tr := NewTrigger(s, "x")
	tr.Fire()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double fire")
		}
	}()
	tr.Fire()
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	c := NewCond(s, "never")
	s.Go("stuck", func(p *Proc) { c.Wait(p) })
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	f1 := r.Fork("alpha")
	r2 := NewRNG(7)
	_ = r2.Fork("alpha")
	f3 := NewRNG(7).Fork("beta")
	// Streams from distinct tags should differ.
	eq := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f3.Uint64() {
			eq++
		}
	}
	if eq > 2 {
		t.Fatalf("forked streams correlated: %d/100 equal", eq)
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(1)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	varr := sq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(varr-1.0/12) > 0.01 {
		t.Fatalf("var = %v, want ~1/12", varr)
	}
}

// Normal returns a standard normal variate from the Box–Muller
// transform LogNormal draws through.
func (r *RNG) Normal() float64 {
	return boxMuller(r.uniformPair())
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(2)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	varr := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(varr-1) > 0.05 {
		t.Fatalf("normal var = %v, want ~1", varr)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(3)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(18)
	}
	mean := sum / float64(n)
	if math.Abs(mean-18) > 0.5 {
		t.Fatalf("exp mean = %v, want ~18", mean)
	}
}

func TestJitterMedianAndClamp(t *testing.T) {
	r := NewRNG(4)
	base := Us(10)
	n := 50001
	vals := make([]Duration, n)
	for i := range vals {
		v := r.Jitter(base, 0.3)
		if v < base/2 || v > 8*base {
			t.Fatalf("jitter out of clamp: %v", v)
		}
		vals[i] = v
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	med := vals[n/2]
	if med < base*9/10 || med > base*11/10 {
		t.Fatalf("jitter median = %v, want ~%v", med, base)
	}
}

func TestRNGIntnBytes(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values", len(seen))
	}
	b := make([]byte, 37)
	r.Bytes(b)
	allZero := true
	for _, x := range b {
		if x != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("Bytes produced all zeros")
	}
}

func TestRecordingTracer(t *testing.T) {
	s := New()
	tr := &RecordingTracer{}
	s.SetTracer(tr)
	s.After(Ns(1), "one", func() {})
	s.After(Ns(2), "two", func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 || tr.Records[0].Name != "one" || tr.Records[1].Name != "two" {
		t.Fatalf("trace = %+v", tr.Records)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.After(Ns(1), "rec", rec)
		}
	}
	s.After(Ns(1), "rec", rec)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != Time(Ns(100)) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		s := New()
		r := NewRNG(99)
		var order []string
		for i := 0; i < 50; i++ {
			name := string(rune('A' + i%26))
			d := Duration(r.Intn(1000)) * Nanosecond
			nm := name
			s.GoAfter(d, nm, func(p *Proc) {
				p.Sleep(Duration(r.Intn(100)) * Nanosecond)
				order = append(order, nm)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

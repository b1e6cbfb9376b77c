package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateJitterGolden = flag.Bool("update", false, "rewrite testdata goldens")

// jitterGoldenFile pins the Jitter output stream: for every (d, sigma)
// pair in jitterGoldenDurations × jitterGoldenSigmas, the SHA-256 of
// the first jitterGoldenDraws outputs at each of jitterGoldenSeeds.
// Any change to a value Jitter returns, or to how many uniforms it
// consumes, moves a line. Regenerate with
//
//	go test ./internal/sim -run TestJitterStreamGolden -update
const jitterGoldenFile = "testdata/jitter_stream.golden"

const jitterGoldenDraws = 20000

var jitterGoldenSeeds = []uint64{1, 5, 11}

// jitterGoldenSigmas are the hostos profiles' JitterSigma values
// (desktop, server, PREEMPT_RT) and the Quiet setting.
var jitterGoldenSigmas = []float64{0.18, 0.12, 0.08, 0}

// jitterGoldenDurations are the segment lengths the hosts jitter: the
// poll loop's SpinCost and YieldCost, each profile's SyscallEntry,
// SyscallExit and WakeLatency, the netstack and driver CPUWork costs,
// and copy and checksum costs at picosecond granularity (CopyBase plus
// 64, 256 and 1024 B at CopyPerByte; a 264 B software checksum).
var jitterGoldenDurations = []Duration{
	Ns(70), Ns(80), Ns(120), Ns(150), Ns(160), Ns(180), Ns(200), Ns(220),
	Ns(250), Ns(260), Ns(280), Ns(290), Ns(300), Ns(350), Ns(380), Ns(450),
	Ns(550), Ns(600), Ns(650), Ns(700), Ns(1000), Ns(1600), Ns(2000), Ns(2800),
	47680, 70720, 79200, 162880,
}

// jitterStreamLines renders one golden line per (d, sigma) pair.
func jitterStreamLines() []string {
	var lines []string
	var buf [8]byte
	for _, sigma := range jitterGoldenSigmas {
		for _, d := range jitterGoldenDurations {
			h := sha256.New()
			for _, seed := range jitterGoldenSeeds {
				r := NewRNG(seed)
				for i := 0; i < jitterGoldenDraws; i++ {
					binary.LittleEndian.PutUint64(buf[:], uint64(r.Jitter(d, sigma)))
					h.Write(buf[:])
				}
			}
			lines = append(lines, fmt.Sprintf("%d %g %s", int64(d), sigma, hex.EncodeToString(h.Sum(nil))))
		}
	}
	return lines
}

func TestJitterStreamGolden(t *testing.T) {
	got := jitterStreamLines()
	if *updateJitterGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jitterGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(jitterGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, Jitter produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("Jitter stream moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// jitterCase is one constructed (d, sigma, u1, u2) input.
type jitterCase struct {
	name      string
	d         Duration
	sigma     float64
	u1, u2    float64
	wantFast  bool
	wantValue Duration // checked when nonzero
}

// u1ForX returns the u1 that, with u2 = 0 (cosine 1) or u2 = 0.5
// (cosine −1), puts sigma·sqrt(−2 log u1) at |x|.
func u1ForX(x, sigma float64) float64 { return math.Exp(-0.5 * (x / sigma) * (x / sigma)) }

// jitterCases covers each way jitterFast accepts and each reason it
// falls back.
var jitterCases = []jitterCase{
	{name: "typical", d: Ns(80), sigma: 0.18, u1: 0.3, u2: 0.1, wantFast: true},
	{name: "smallest u1", d: Ns(700), sigma: 0.18, u1: 0x1p-53, u2: 0.3, wantFast: true},
	{name: "negative d", d: -Ns(450), sigma: 0.12, u1: 0.7, u2: 0.9, wantFast: true},
	{name: "clamped low", d: Ns(1600), sigma: 1, u1: 0x1p-40, u2: 0.5, wantFast: true, wantValue: Ns(800)},
	{name: "clamped high", d: Ns(1600), sigma: 1, u1: 0x1p-40, u2: 0, wantFast: true, wantValue: Ns(12800)},
	{name: "u1 at the cut", d: Ns(350), sigma: 0.18, u1: 1 - 0x1p-10, u2: 0.2, wantFast: true},
	{name: "sigma zero", d: Ns(2800), sigma: 0, u1: 0.999999, u2: 0.25, wantFast: true, wantValue: Ns(2800)},
	{name: "sigma zero huge d", d: 1<<62 + 1, sigma: 0, u1: 0.5, u2: 0.5, wantFast: true},

	{name: "u1 near 1", d: Ns(80), sigma: 0.18, u1: 1 - 0x1p-11, u2: 0.1},
	{name: "u1 largest", d: Ns(80), sigma: 0.18, u1: 1 - 0x1p-53, u2: 0.1},
	{name: "at the 0.5 clamp", d: Ns(1000), sigma: 0.3, u1: u1ForX(math.Ln2, 0.3), u2: 0.5},
	{name: "at the 8 clamp", d: Ns(1000), sigma: 0.3, u1: u1ForX(3*math.Ln2, 0.3), u2: 0},
	// cos(2π·0.25) is 6e-17: f is 1 to the last bit, y is d exactly,
	// and y·(1−2^-36) truncates below it.
	{name: "integer truncation boundary", d: Ns(80), sigma: 0.18, u1: 0.5, u2: 0.25, wantValue: Ns(80)},
	{name: "huge d", d: 1 << 60, sigma: 0.18, u1: 0.5, u2: 0.1},
	{name: "negative sigma", d: Ns(80), sigma: -0.18, u1: 0.5, u2: 0.1},
	{name: "sigma above the bound", d: Ns(80), sigma: 5, u1: 0.5, u2: 0.1},
	{name: "sigma NaN", d: Ns(80), sigma: math.NaN(), u1: 0.5, u2: 0.1},
}

// TestJitterFastBranches checks every case's accept/fall-back decision
// and that an accepted result is the exact chain's.
func TestJitterFastBranches(t *testing.T) {
	for _, c := range jitterCases {
		t.Run(c.name, func(t *testing.T) {
			want := jitterExact(c.d, c.sigma, c.u1, c.u2)
			got, ok := jitterFast(c.d, c.sigma, c.u1, c.u2)
			if ok != c.wantFast {
				t.Fatalf("jitterFast ok = %v, want %v", ok, c.wantFast)
			}
			if ok && got != want {
				t.Fatalf("jitterFast = %d, exact chain %d", int64(got), int64(want))
			}
			if c.wantValue != 0 && want != c.wantValue {
				t.Fatalf("exact chain = %d, want %d", int64(want), int64(c.wantValue))
			}
		})
	}
}

// TestJitterMatchesExactChain runs Jitter beside a second generator
// that draws the same uniforms for the exact chain.
func TestJitterMatchesExactChain(t *testing.T) {
	for _, sigma := range []float64{0.08, 0.18, 0.3, 1, 4} {
		fast, ref := NewRNG(21), NewRNG(21)
		for i := 0; i < 50000; i++ {
			d := jitterGoldenDurations[i%len(jitterGoldenDurations)]
			u1, u2 := ref.uniformPair()
			if got, want := fast.Jitter(d, sigma), jitterExact(d, sigma, u1, u2); got != want {
				t.Fatalf("sigma %v draw %d: Jitter = %d, exact chain %d (u1=%v u2=%v)", sigma, i, int64(got), int64(want), u1, u2)
			}
		}
	}
}

// FuzzJitterExact lets the fuzzer choose the uniforms' bits, d and
// sigma, and checks that every result jitterFast accepts is the exact
// chain's. u1 and u2 take 53 bits as Float64 does.
func FuzzJitterExact(f *testing.F) {
	bits := func(u float64) uint64 { return uint64(u * (1 << 53)) }
	for _, c := range jitterCases {
		f.Add(bits(c.u1), bits(c.u2), int64(c.d), c.sigma)
	}
	f.Fuzz(func(t *testing.T, b1, b2 uint64, d int64, sigma float64) {
		u1 := float64(b1&(1<<53-1)) / (1 << 53)
		u2 := float64(b2&(1<<53-1)) / (1 << 53)
		if u1 == 0 {
			return
		}
		got, ok := jitterFast(Duration(d), sigma, u1, u2)
		if want := jitterExact(Duration(d), sigma, u1, u2); ok && got != want {
			t.Fatalf("jitterFast(%d, %v, %v, %v) = %d, exact chain %d", d, sigma, u1, u2, int64(got), int64(want))
		}
	})
}

func TestJitterZeroAlloc(t *testing.T) {
	r := NewRNG(9)
	if n := testing.AllocsPerRun(1000, func() { r.Jitter(Ns(80), 0.18) }); n != 0 {
		t.Fatalf("Jitter allocates %v times per call, want 0", n)
	}
}

var jitterSink Duration

// BenchmarkJitter times Jitter at the desktop profile's sigma on the
// poll loop's spin cost, and the exact chain on the same draws.
func BenchmarkJitter(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			jitterSink = r.Jitter(Ns(80), 0.18)
		}
	})
	b.Run("exact", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			u1, u2 := r.uniformPair()
			jitterSink = jitterExact(Ns(80), 0.18, u1, u2)
		}
	})
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"fpgavirtio"
	"fpgavirtio/internal/telemetry"
)

// boot is one set of freshly opened sessions. It runs the seeded plan
// once as its first round, whose simulated record it keeps, then
// repeats the plan's batches until its time slice ends, then runs the
// echo spot checks. Host-side figures (setup, batch wall times,
// allocations, heap) vary between boots; the first round's simulated
// record does not, and its digest proves it.
//
// Sessions have no Close: their parked simulator processes keep them
// reachable for the life of the process. A run therefore opens a fixed
// number of boots, never one per unit of time.
type boot struct {
	setup      time.Duration
	setupCalNs int64  // calibration measured right before Open
	pkts       int    // packets completed in timed batches
	hostNs     int64  // wall time of the timed batches
	mallocs    uint64 // heap allocations during the first round's batches
	heap       uint64 // heap growth from before Open to the end of the first round

	attempted, failed int
	errs              []string

	sim simRecord
}

// simRecord is everything a boot's first round produced in simulated
// time. It is a pure function of the workload and the seed.
type simRecord struct {
	pkts     int
	rtt      []fpgavirtio.RTTSample
	streams  []fpgavirtio.StreamResult
	counters map[string]float64 // registry counter deltas over the round, summed over sessions
	gauges   map[string]float64 // registry gauges after the round, maximum over sessions
	bus      fpgavirtio.BusStats
	faults   map[string]int64   // injections since Open, "<stack>.<class>"
	recovery map[string]float64 // recovery counters since Open, summed over sessions
	unrecov  []string           // fault classes that fired without any recovery
	digest   string
}

// session is one opened stack, wrapped so both stacks read alike.
type session struct {
	stack    string
	net      *fpgavirtio.NetSession
	xdma     *fpgavirtio.XDMASession
	registry func() registry
	bus      func() fpgavirtio.BusStats
	summary  func() map[string]int64

	regBefore registry
	busBefore fpgavirtio.BusStats
}

func openSessions(w workload, seed uint64, tr *tracer) ([]*session, error) {
	var out []*session
	if w.net != nil {
		tr.begin("open.net")
		ns, err := fpgavirtio.OpenNet(w.net(seed))
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("open net: %w", err)
		}
		out = append(out, &session{
			stack: "net", net: ns,
			registry: func() registry { return readRegistry(ns.Registry().Snapshot()) },
			bus:      ns.BusStats, summary: ns.FaultSummary,
		})
	}
	if w.xdma != nil {
		tr.begin("open.xdma")
		xs, err := fpgavirtio.OpenXDMA(w.xdma(seed))
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("open xdma: %w", err)
		}
		out = append(out, &session{
			stack: "xdma", xdma: xs,
			registry: func() registry { return readRegistry(xs.Registry().Snapshot()) },
			bus:      xs.BusStats, summary: xs.FaultSummary,
		})
	}
	return out, nil
}

// registry is a read of a session's counters and gauges.
type registry struct {
	counters, gauges map[string]float64
}

func readRegistry(snaps []telemetry.MetricSnapshot) registry {
	r := registry{counters: map[string]float64{}, gauges: map[string]float64{}}
	for _, s := range snaps {
		switch s.Type {
		case "counter":
			r.counters[s.Name] = s.Value
		case "gauge":
			r.gauges[s.Name] = s.Value
		}
	}
	return r
}

func (s *session) readRegistry(tr *tracer) registry {
	tr.begin("registry.read." + s.stack)
	defer tr.end()
	return s.registry()
}

// group is one complete group of batches: its packets and host time,
// and the calibration measured right after it (0 when uncalibrated).
type group struct {
	pkts      int
	ns, calNs int64
}

// runBoot opens w's sessions from seed, drives plan p through them
// until deadline (at least once), and appends every complete group of
// batches to groups. A non-nil cal is measured before Open and after
// every group.
func runBoot(w workload, seed uint64, p plan, deadline time.Time, tr *tracer, cal *calibrator, groups *[]group) (*boot, error) {
	b := &boot{}
	b.sim.rtt = make([]fpgavirtio.RTTSample, 0, w.batches*w.batchPkts)
	// Collect garbage first, so that earlier boots' leftovers neither
	// land in this boot's timings nor blur its heap growth.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapInuse

	if cal != nil {
		b.setupCalNs = cal.median(3)
	}
	tr.begin("boot")
	defer tr.end()
	t0 := time.Now()
	sessions, err := openSessions(w, seed, tr)
	b.setup = time.Since(t0)
	if err != nil {
		return nil, err
	}
	byStack := map[string]*session{}
	for _, s := range sessions {
		s.regBefore = s.readRegistry(tr)
		s.busBefore = s.bus()
		byStack[s.stack] = s
	}

	// Every sample is checked; only the first round's are kept.
	badSamples := 0
	keep := true
	sample := func(_ int, s fpgavirtio.RTTSample) {
		if s.Hardware+s.RespGen+s.Software != s.Total || s.Hardware > s.Total {
			badSamples++
		}
		if keep {
			b.sim.rtt = append(b.sim.rtt, s)
		}
	}

	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	var groupNs int64
	for i := 0; i < w.batches || time.Now().Before(deadline); i++ {
		if i == w.batches {
			keep = false
			b.endRound(sessions, tr, heap0, mallocs0)
		}
		kind := w.kind(i % w.batches)
		payload := p.payloads[i%w.batches]
		b.attempted += w.batchPkts
		tr.begin(kind.spanName())
		var err error
		var res fpgavirtio.StreamResult
		start := time.Now()
		switch kind {
		case kindPing:
			err = byStack["net"].net.PingSeries(payload, w.batchPkts, sample)
		case kindRoundTrip:
			err = byStack["xdma"].xdma.RoundTripSeries(payload, w.batchPkts, sample)
		case kindStream:
			res, err = byStack["net"].net.Stream(fpgavirtio.StreamConfig{
				Packets: w.batchPkts, PayloadSize: len(payload), Window: streamWindow,
			})
		}
		ns := int64(time.Since(start))
		tr.end()
		if err == nil && kind == kindStream {
			if res.Packets != w.batchPkts || res.Drops != 0 || res.PPS <= 0 {
				err = fmt.Errorf("stream completed %d of %d packets with %d drops", res.Packets, w.batchPkts, res.Drops)
			}
			if keep {
				res.RTT = nil
				b.sim.streams = append(b.sim.streams, res)
			}
		}
		if err != nil {
			// A failed batch leaves its sessions in an unknown state:
			// the boot ends here, and its record cannot match.
			b.failed += w.batchPkts
			b.errs = append(b.errs, fmt.Sprintf("batch %d: %v", i, err))
			b.sim.digest = "incomplete"
			return b, nil
		}
		b.pkts += w.batchPkts
		b.hostNs += ns
		groupNs += ns
		if (i+1)%w.group == 0 {
			g := group{pkts: w.group * w.batchPkts, ns: groupNs}
			if cal != nil {
				g.calNs = cal.measure()
			}
			*groups = append(*groups, g)
			groupNs = 0
		}
		if keep {
			b.sim.pkts += w.batchPkts
		}
	}
	if keep {
		// The time slice ended with the first round.
		b.endRound(sessions, tr, heap0, mallocs0)
	}
	if badSamples > 0 {
		b.failed += badSamples
		b.errs = append(b.errs, fmt.Sprintf("%d samples break Hardware+RespGen+Software == Total or Hardware <= Total", badSamples))
	}
	if len(b.sim.unrecov) > 0 {
		b.failed++
		b.errs = append(b.errs, fmt.Sprintf("fault classes without a recovery: %v", b.sim.unrecov))
	}

	// Echo spot checks, outside the timed batches: the echoed bytes
	// must equal the seeded payload. The XDMA session compares its
	// read-back itself and reports a mismatch as an error.
	for _, c := range p.checks {
		for _, s := range sessions {
			b.attempted++
			tr.begin("check.echo." + s.stack)
			var err error
			if s.net != nil {
				var echo []byte
				if echo, _, err = s.net.Ping(c); err == nil && !bytes.Equal(echo, c) {
					err = fmt.Errorf("echo of %d bytes differs from the payload", len(c))
				}
			} else {
				_, err = s.xdma.RoundTrip(c)
			}
			tr.end()
			if err != nil {
				b.failed++
				b.errs = append(b.errs, fmt.Sprintf("check on %s: %v", s.stack, err))
			}
		}
	}
	return b, nil
}

// endRound takes the first round's heap growth and allocation count,
// reads the sessions' registries, bus and fault counters, checks that
// every fault class that fired was recovered, and seals the record
// with its digest.
func (b *boot) endRound(sessions []*session, tr *tracer, heap0, mallocs0 uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heap = ms.HeapInuse - heap0
	b.mallocs = ms.Mallocs - mallocs0
	s := &b.sim
	s.counters = map[string]float64{}
	s.gauges = map[string]float64{}
	s.recovery = map[string]float64{}
	s.faults = map[string]int64{}
	fired := map[string]bool{}
	for _, ss := range sessions {
		after := ss.readRegistry(tr)
		for name, v := range after.counters {
			s.counters[name] += v - ss.regBefore.counters[name]
			if strings.HasPrefix(name, "recovery.") {
				s.recovery[name] += v
			}
		}
		for name, v := range after.gauges {
			s.gauges[name] = math.Max(s.gauges[name], v)
		}
		bus := ss.bus()
		s.bus.DownTLPs += bus.DownTLPs - ss.busBefore.DownTLPs
		s.bus.UpTLPs += bus.UpTLPs - ss.busBefore.UpTLPs
		s.bus.DownBytes += bus.DownBytes - ss.busBefore.DownBytes
		s.bus.UpBytes += bus.UpBytes - ss.busBefore.UpBytes
		s.bus.Interrupts += bus.Interrupts - ss.busBefore.Interrupts
		for class, n := range ss.summary() {
			if n > 0 {
				s.faults[ss.stack+"."+class] = n
				fired[class] = true
			}
		}
	}
	// The check is per class over the whole workload: a class may land
	// harmlessly on one stack (a poisoned read whose value the XDMA
	// driver discards) while the other stack has to recover from it.
	for _, class := range sortedKeys(fired) {
		recovered := false
		for _, c := range recoveryCounters[class] {
			recovered = recovered || s.recovery[c] > 0
		}
		if !recovered {
			s.unrecov = append(s.unrecov, class)
		}
	}
	s.digest = s.computeDigest()
}

// computeDigest hashes the simulated record: every RTT sample's
// decomposition, every stream result, and every registry, bus and
// fault count, in a fixed order.
func (s *simRecord) computeDigest() string {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(int64(s.pkts))
	for _, x := range s.rtt {
		put(int64(x.Total), int64(x.Hardware), int64(x.RespGen), int64(x.Software))
	}
	for _, x := range s.streams {
		put(int64(x.Packets), int64(x.Elapsed), int64(math.Float64bits(x.PPS)), int64(x.Drops),
			int64(x.OccupancyMax), int64(math.Float64bits(x.OccupancyMean)), int64(x.Doorbells), int64(x.Interrupts))
	}
	put(int64(s.bus.DownTLPs), int64(s.bus.UpTLPs), s.bus.DownBytes, s.bus.UpBytes, int64(s.bus.Interrupts))
	for kind, m := range []map[string]float64{s.counters, s.gauges, s.recovery} {
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(h, "%d:%s=%x;", kind, k, math.Float64bits(m[k]))
		}
	}
	for _, k := range sortedKeys(s.faults) {
		fmt.Fprintf(h, "%s=%d;", k, s.faults[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

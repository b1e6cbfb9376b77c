package fpgavirtio

import (
	"fmt"

	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// baseSession is the testbed every session embeds: the simulation, the
// host, the fault injector, the always-on flight recorder and the FPGA
// endpoint found at enumeration. It boots the testbed, runs
// application processes on it, and serves the accessors that do not
// depend on the device personality. Its name ends in "Session" so the
// promoted exported methods stay detsafe roots.
type baseSession struct {
	s      *sim.Sim
	host   *hostos.Host
	faults *faults.Injector
	flight *flightWatch
	ep     *pcie.Endpoint
	// exchange runs one timed round trip of data inside an application
	// process, reading the reply into back (len(back) == len(data)).
	// The net session also takes a nil back and drops the echo. Every
	// round-trip entry point (detailed, series, the window-1 stream,
	// replays) runs it. Sessions without a round-trip workload leave it
	// nil.
	exchange func(p *sim.Proc, data, back []byte) (RTTSample, error)
}

// boot builds and brings up the testbed. The fault injector is armed
// before attach puts the FPGA device on the bus, so the endpoint sees
// it from its first TLP; it draws from its own fork of the seed,
// leaving the host-noise stream untouched. The flight recorder is
// installed after attach but before the "boot" process runs, so its
// ring already holds context when the first trigger fires. Its
// span methods are allocation-free, so the 0-alloc hot path is
// unaffected. The boot process enumerates exactly one device and
// hands it to bind.
func (b *baseSession) boot(cfg Config, attach func(s *sim.Sim, h *hostos.Host), bind func(p *sim.Proc, info *pcie.DeviceInfo) error) error {
	plan, err := faults.Parse(cfg.Faults)
	if err != nil {
		return err
	}
	b.s = sim.New()
	b.host = hostos.New(b.s, hostMemBytes, cfg.hostConfig(), cfg.Seed)
	b.faults = faults.NewInjector(plan, sim.NewRNG(cfg.Seed).Fork("faults"), b.host.Metrics())
	b.host.RC.SetFaults(b.faults)
	attach(b.s, b.host)
	b.flight = newFlightWatch(b.s, b.faults, b.host.Metrics())

	var bootErr error
	booted := false
	b.s.Go("boot", func(p *sim.Proc) {
		defer b.s.Stop()
		infos := b.host.RC.Enumerate(p)
		if len(infos) != 1 {
			bootErr = fmt.Errorf("fpgavirtio: enumerated %d devices, want 1", len(infos))
			return
		}
		b.ep = infos[0].EP
		bootErr = bind(p, infos[0])
		booted = bootErr == nil
	})
	if err := b.s.Run(); err != nil {
		return err
	}
	if bootErr != nil {
		return bootErr
	}
	if !booted {
		return fmt.Errorf("fpgavirtio: session did not boot")
	}
	return nil
}

// run executes fn as an application process and drives the simulation
// until it finishes.
func (b *baseSession) run(fn func(p *sim.Proc) error) error {
	var opErr error
	done := false
	b.s.Go("app", func(p *sim.Proc) {
		defer b.s.Stop()
		opErr = fn(p)
		done = true
	})
	err := b.s.Run()
	publishSimStats(b.s, b.host.Metrics())
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("fpgavirtio: operation did not complete")
	}
	return opErr
}

// detailed runs one timed round trip of data as its own application
// process, reading the reply into back (len(back) == len(data)).
func (b *baseSession) detailed(data, back []byte) (RTTSample, error) {
	var sample RTTSample
	err := b.run(func(p *sim.Proc) error {
		var err error
		sample, err = b.exchange(p, data, back)
		return err
	})
	return sample, err
}

// series runs n timed round trips of data inside one application
// process, reading every reply into back — the sweep's hot loop,
// allocation-free in steady state. sample (optional) receives each
// round trip's index and decomposition as it completes; what names a
// round trip in errors.
func (b *baseSession) series(what string, data, back []byte, n int, sample func(i int, s RTTSample)) error {
	return b.run(func(p *sim.Proc) error {
		for i := 0; i < n; i++ {
			s, err := b.exchange(p, data, back)
			if err != nil {
				return fmt.Errorf("fpgavirtio: %s %d: %w", what, i, err)
			}
			if sample != nil {
				sample(i, s)
			}
		}
		return nil
	})
}

// Registry returns the session's telemetry metrics registry, holding
// the per-layer instruments every subsystem registered at boot.
func (b *baseSession) Registry() *telemetry.Registry { return b.host.Metrics() }

// FaultPlan reports the armed fault plan's canonical string (empty when
// no injection is armed).
func (b *baseSession) FaultPlan() string {
	if b.faults == nil {
		return ""
	}
	return b.faults.Plan().String()
}

// FaultEvents reports the total number of faults injected so far.
func (b *baseSession) FaultEvents() int64 { return b.faults.Total() }

// FaultSummary reports per-class injected-fault counts (nil when no
// injection is armed).
func (b *baseSession) FaultSummary() map[string]int64 { return b.faults.Summary() }

// FlightDumps returns the post-mortem snapshots the always-on flight
// recorder has taken so far (fault recoveries, new worst-case round
// trips), oldest trigger first.
func (b *baseSession) FlightDumps() []telemetry.FlightDump { return b.flight.dumps() }

// BusStats returns the FPGA endpoint's accumulated bus counters.
func (b *baseSession) BusStats() BusStats {
	st := b.ep.Stats()
	out := BusStats{DownBytes: st.DownBytes, UpBytes: st.UpBytes, Interrupts: st.Interrupts}
	for _, n := range st.DownTLPs {
		out.DownTLPs += n
	}
	for _, n := range st.UpTLPs {
		out.UpTLPs += n
	}
	return out
}

// CaptureCriticalPaths replays the deterministic round-trip series up
// to the largest target index and returns the critical-path analysis
// of each targeted exchange. It must be called on a freshly opened
// session with the same config as the measured run: sessions are pure
// functions of their seed, so round trip i here is the same round
// trip i the measurement saw. The span recorder is installed only
// around targeted indices — span emission is a pure recording hook,
// so the replayed timing is identical either way.
func (b *baseSession) CaptureCriticalPaths(data []byte, targets []int) ([]CapturedPath, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	if b.exchange == nil {
		return nil, fmt.Errorf("fpgavirtio: session has no round trip to replay")
	}
	want := make(map[int]bool, len(targets))
	maxT := 0
	for _, t := range targets {
		if t < 0 {
			return nil, fmt.Errorf("fpgavirtio: negative capture target %d", t)
		}
		want[t] = true
		if t > maxT {
			maxT = t
		}
	}
	rec := telemetry.NewRecorder(b.s.SpanKinds(), 0)
	back := make([]byte, len(data))
	out := make([]CapturedPath, 0, len(targets))
	err := b.run(func(p *sim.Proc) error {
		for i := 0; i <= maxT; i++ {
			capture := want[i]
			if capture {
				rec.Reset()
				b.s.SetSpanSink(rec)
			}
			s, err := b.exchange(p, data, back)
			if capture {
				b.s.SetSpanSink(nil)
			}
			if err != nil {
				return fmt.Errorf("fpgavirtio: replay round trip %d: %w", i, err)
			}
			if capture {
				cp, err := telemetry.AnalyzeCriticalPath(rec.Spans())
				if err != nil {
					return fmt.Errorf("fpgavirtio: replay round trip %d: %w", i, err)
				}
				out = append(out, CapturedPath{Index: i, RTT: sim.Ns(s.Total.Nanoseconds()), Path: cp})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Package fpgavirtio is a simulation-backed reproduction of
// "Performance Evaluation of VirtIO Device Drivers for Host-FPGA PCIe
// Communication" (Bandara et al., IPDPSW 2024).
//
// It models the paper's complete testbed in software — a PCIe Gen2 x2
// link at TLP granularity, the Xilinx XDMA DMA engine, an FPGA-side
// VirtIO controller with net/console/block personalities, and a host
// with kernel driver stacks (the vendor XDMA character-device driver
// and the native virtio-pci/virtio-net front-ends), a UDP/IP network
// stack, interrupt dispatch and scheduler noise — so that the paper's
// latency experiments (Figures 3-5, Table I) can be regenerated
// deterministically on any machine.
//
// The public surface is organised as sessions, one per device
// personality:
//
//   - OpenNet: the paper's main test case — the FPGA as a VirtIO
//     network device echoing UDP packets.
//   - OpenXDMA: the vendor baseline — the XDMA example design driven
//     through read()/write() on character devices.
//   - OpenConsole, OpenBlk: the additional VirtIO device types.
//
// Sessions run the discrete-event simulation internally; all returned
// latencies are simulated time expressed as time.Duration. Every
// session is deterministic for a given Config.Seed.
package fpgavirtio

import (
	"time"

	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
)

// Link selects the modeled PCIe link.
type Link int

// Supported link profiles.
const (
	// Gen2x2 is the paper's testbed link (Alinx AX7A200, two Gen2 lanes).
	Gen2x2 Link = iota
	// Gen3x4 is the faster profile used by the portability study.
	Gen3x4
)

// String names the link profile.
func (l Link) String() string {
	if l == Gen3x4 {
		return "Gen3 x4"
	}
	return "Gen2 x2"
}

func (l Link) config() pcie.LinkConfig {
	if l == Gen3x4 {
		return pcie.Gen3x4()
	}
	return pcie.DefaultGen2x2()
}

// HostProfile selects the host operating-system cost model — the
// portability axis the paper's conclusion plans to explore ("on
// different operating systems").
type HostProfile int

// Host profiles.
const (
	// DesktopHost is the paper's testbed class (Fedora desktop).
	DesktopHost HostProfile = iota
	// ServerHost is a mitigations-on, quieter server distribution.
	ServerHost
	// RTHost is a PREEMPT_RT-style low-jitter kernel.
	RTHost
)

// String names the profile.
func (h HostProfile) String() string {
	switch h {
	case ServerHost:
		return "server"
	case RTHost:
		return "preempt-rt"
	default:
		return "desktop"
	}
}

// Config is shared testbed configuration. The zero value is the
// paper's setup: Gen2 x2 link, desktop host, noise enabled, seed 0.
type Config struct {
	// Seed makes the run reproducible; equal seeds give identical runs.
	Seed uint64
	// Quiet disables host noise (jitter and preemptions) so latencies
	// are exactly repeatable — useful for debugging, not for
	// reproducing the paper's distributions.
	Quiet bool
	// Link selects the PCIe profile.
	Link Link
	// Host selects the operating-system cost model.
	Host HostProfile
	// Faults arms deterministic fault injection from a plan string (see
	// internal/faults: "class[:p=…][:every=…][:after=…][:count=…]"
	// clauses, comma-separated). Empty means no injection — the default,
	// byte-identical to builds without the fault machinery. Fault draws
	// come from a dedicated fork of the session RNG, so a plan's
	// injections are replayable for a given Seed and do not perturb the
	// host-noise stream.
	Faults string
	// PollMode switches the session's driver stack to its busy-poll
	// datapath: no MSI-X interrupts are armed and completions are
	// discovered by spinning — the virtio-net driver on the used-ring
	// index (EVENT_IDX disabled), the XDMA driver on a host-memory
	// status writeback. The spin loop is costed in simulated time
	// (hostos.SpinCost, SpinBudget and YieldCost: ~80 ns per empty
	// poll, a ~700 ns yield slot every 64 spins), so poll-mode runs
	// replay exactly like interrupt-mode ones. Latency drops — the IRQ entry,
	// softirq and scheduler-wake segments vanish — at the price of a
	// core burning cycles, which the poll.* metrics quantify.
	PollMode bool
}

func (c Config) hostConfig() hostos.Config {
	var hc hostos.Config
	switch c.Host {
	case ServerHost:
		hc = hostos.ServerConfig()
	case RTHost:
		hc = hostos.RTConfig()
	default:
		hc = hostos.DefaultConfig()
	}
	if c.Quiet {
		hc.JitterSigma = 0
		hc.PreemptMeanGap = 0
		hc.WakeTailProb = 0
	}
	return hc
}

const hostMemBytes = 64 << 20

// toStd converts simulated time to a time.Duration (nanoseconds).
func toStd(d sim.Duration) time.Duration {
	return time.Duration(int64(d / sim.Nanosecond))
}

// RTTSample is one round trip's measured decomposition, following the
// paper's methodology: Total is what the application's
// clock_gettime-based timer saw; Hardware is the FPGA performance
// counters' share (8 ns resolution); RespGen is the user logic's
// response-generation time (deducted, per §IV-B); Software is the
// remainder attributed to the driver and OS stack.
type RTTSample struct {
	Total    time.Duration
	Hardware time.Duration
	RespGen  time.Duration
	Software time.Duration
}

// BusStats summarizes an endpoint's bus traffic.
type BusStats struct {
	DownTLPs   int
	UpTLPs     int
	DownBytes  int64
	UpBytes    int64
	Interrupts int
}

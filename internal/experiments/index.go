package experiments

import "fpgavirtio/internal/telemetry"

// Result is what an index entry's run returns: a study whose Render is
// the text fvbench prints for it.
type Result interface{ Render() string }

// Entry is one experiment of the index: the fvbench name, the DESIGN §4
// ID, and the fixed parameters the experiment runs at.
type Entry struct {
	Name string
	ID   string // E1–E13; empty for all
	Desc string
	// Payload and Burst are the fixed payload size and burst length a
	// study runs at; 0 where it takes Params.Payloads.
	Payload, Burst int
	// Sweep marks the entries derived from the shared sweep, which the
	// caller measures and passes to AttributeTails before Run.
	Sweep bool
	// Artifact marks the entries whose run builds a bench artifact.
	Artifact bool

	run runFunc
}

// Run runs the entry. A sweep entry derives its result from sw; any
// other entry measures its own sessions from p and ignores sw. art is
// the run's bench artifact, nil unless e.Artifact.
func (e Entry) Run(p Params, sw *Sweep) (r Result, art *telemetry.BenchArtifact, err error) {
	return e.run(e, p, sw)
}

// Index lists every fvbench experiment in usage order.
var Index = []Entry{
	{Name: "fig3", ID: "E1", Desc: "round-trip latency distribution (VirtIO vs XDMA)", Sweep: true, Artifact: true, run: fromSweep(RunFig3)},
	{Name: "fig4", ID: "E2", Desc: "VirtIO latency breakdown (software vs hardware)", Sweep: true, Artifact: true, run: fromSweep(RunFig4)},
	{Name: "fig5", ID: "E3", Desc: "XDMA latency breakdown", Sweep: true, Artifact: true, run: fromSweep(RunFig5)},
	{Name: "table1", ID: "E4", Desc: "tail latencies (95/99/99.9%)", Sweep: true, Artifact: true, run: fromSweep(RunTable1)},
	{Name: "all", Desc: "fig3+fig4+fig5+table1 from one sweep", Sweep: true, Artifact: true,
		run: fromSweep(func(sw *Sweep) *Sweep { return sw })},
	{Name: "offload", ID: "E5", Desc: "checksum-offload ablation", Payload: 1024,
		run: study(func(e Entry, p Params) (*OffloadResult, error) { return RunOffload(p, e.Payload) })},
	{Name: "ablate-irq", ID: "E6", Desc: "interrupt/notification ablation", Payload: 256,
		run: study(func(e Entry, p Params) (*IRQAblation, error) { return RunIRQAblation(p, e.Payload) })},
	{Name: "bypass", ID: "E7", Desc: "host-bypass interface vs driver path",
		run: study(func(_ Entry, p Params) (*BypassResult, error) { return RunBypass(p) })},
	{Name: "porta", ID: "E8", Desc: "device-type and link portability",
		run: study(func(_ Entry, p Params) (*PortabilityResult, error) { return RunPortability(p) })},
	{Name: "eventidx", ID: "E9", Desc: "EVENT_IDX vs flag-based notification suppression", Burst: 32,
		run: study(func(e Entry, p Params) (*EventIdxResult, error) { return RunEventIdx(p, e.Burst) })},
	{Name: "osprofiles", ID: "E10", Desc: "desktop/server/PREEMPT_RT host comparison", Payload: 256,
		run: study(func(e Entry, p Params) (*OSProfileResult, error) { return RunOSProfiles(p, e.Payload) })},
	{Name: "throughput", ID: "E11", Desc: "pipelined (VirtIO) vs serial (XDMA) throughput",
		run: study(func(_ Entry, p Params) (*ThroughputResult, error) { return RunThroughput(p) })},
	{Name: "ringformat", ID: "E12", Desc: "split vs packed virtqueue format", Payload: 256,
		run: study(func(e Entry, p Params) (*RingFormatResult, error) { return RunRingFormat(p, e.Payload) })},
	{Name: "polltrade", ID: "E13", Desc: "poll vs interrupt datapaths, latency-vs-CPU trade", Artifact: true,
		run: func(_ Entry, p Params, _ *Sweep) (Result, *telemetry.BenchArtifact, error) {
			r, err := RunPollTrade(p)
			if err != nil {
				return nil, nil, err
			}
			return r, BuildPollTradeArtifact(r), nil
		}},
}

// Lookup finds the entry named name. For an unknown name it reports
// false and an entry that holds only the name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Index {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{Name: name}, false
}

// runFunc is an entry's run.
type runFunc = func(e Entry, p Params, sw *Sweep) (Result, *telemetry.BenchArtifact, error)

// fromSweep makes a sweep entry's run: build the sweep's artifact, then
// derive the entry's view. The artifact comes first, as fvbench has
// always built it: the first percentile read sorts each series in
// place, and a standard deviation sums its samples in stored order.
func fromSweep[R Result](derive func(*Sweep) R) runFunc {
	return func(e Entry, _ Params, sw *Sweep) (Result, *telemetry.BenchArtifact, error) {
		art := BuildArtifact(e.Name, sw)
		return derive(sw), art, nil
	}
}

// study makes the run of an entry that measures its own sessions and
// writes no artifact.
func study[R Result](run func(e Entry, p Params) (R, error)) runFunc {
	return func(e Entry, p Params, _ *Sweep) (Result, *telemetry.BenchArtifact, error) {
		r, err := run(e, p)
		if err != nil {
			return nil, nil, err
		}
		return r, nil, nil
	}
}

package fpgavirtio

import (
	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// flightWatch owns a session's always-on flight recorder and decides
// when its ring is worth freezing: a fault-recovery fired, or a new
// worst-case round trip just landed. It also feeds the tail.rtt.* HDR
// histograms so percentile estimates survive sweeps that never retain
// per-sample series. Everything here runs once per round trip on the
// 0-alloc hot path: reason strings are precomputed, the per-class
// scratch is a fixed slice, and the HDR instruments are cached at
// construction.
type flightWatch struct {
	fr  *telemetry.FlightRecorder
	inj *faults.Injector
	s   *sim.Sim

	// reasons[i] is the precomputed dump reason for faults.Classes[i].
	reasons []string
	// classSeen[i] is the per-class injection count at the last note.
	classSeen []int64
	lastTotal int64
	worst     sim.Duration

	rttTotal *telemetry.HDRHistogram
	rttSW    *telemetry.HDRHistogram
	rttHW    *telemetry.HDRHistogram
	rttRG    *telemetry.HDRHistogram
}

// reasonWorstRTT names the dump taken when a round trip sets a new
// worst-case latency.
const reasonWorstRTT = "worst-rtt"

// newFlightWatch builds the recorder, installs it as the sim's flight
// sink, and returns the watcher. One dump slot per fault class plus
// one for the worst-case trigger, so no trigger ever finds the slots
// exhausted.
func newFlightWatch(s *sim.Sim, inj *faults.Injector, reg *telemetry.Registry) *flightWatch {
	fr := telemetry.NewFlightRecorder(s.SpanKinds(), 0, len(faults.Classes)+1, reg)
	s.SetFlightSink(fr)
	fw := &flightWatch{
		fr:        fr,
		inj:       inj,
		s:         s,
		reasons:   make([]string, len(faults.Classes)),
		classSeen: make([]int64, len(faults.Classes)),
		rttTotal:  reg.HDR(telemetry.MetricTailRTTTotalNs),
		rttSW:     reg.HDR(telemetry.MetricTailRTTSWNs),
		rttHW:     reg.HDR(telemetry.MetricTailRTTHWNs),
		rttRG:     reg.HDR(telemetry.MetricTailRTTRGNs),
	}
	for i, c := range faults.Classes {
		fw.reasons[i] = "fault:" + c.String()
	}
	return fw
}

// note records one completed round trip: HDR observations of the
// decomposition, plus dump triggers. Allocation-free.
func (fw *flightWatch) note(s RTTSample) {
	fw.rttTotal.Observe(s.Total.Nanoseconds())
	fw.rttSW.Observe(s.Software.Nanoseconds())
	fw.rttHW.Observe(s.Hardware.Nanoseconds())
	fw.rttRG.Observe(s.RespGen.Nanoseconds())
	fw.noteFaults()
	d := sim.Ns(s.Total.Nanoseconds())
	if d > fw.worst {
		fw.worst = d
		fw.fr.Snapshot(reasonWorstRTT, fw.s.Now())
	}
}

// noteFaults snapshots the ring for every fault class that fired since
// the previous call. The cheap Total() comparison keeps the common
// (no-new-faults) case to one counter read; windowed stream loops call
// this directly since they have no per-packet RTTSample.
func (fw *flightWatch) noteFaults() {
	t := fw.inj.Total()
	if t == fw.lastTotal {
		return
	}
	fw.lastTotal = t
	for i, c := range faults.Classes {
		if n := fw.inj.Injected(c); n != fw.classSeen[i] {
			fw.classSeen[i] = n
			fw.fr.Snapshot(fw.reasons[i], fw.s.Now())
		}
	}
}

// dumps returns the snapshots taken so far, oldest trigger first.
func (fw *flightWatch) dumps() []telemetry.FlightDump {
	if fw == nil {
		return nil
	}
	return fw.fr.Dumps()
}

// CapturedPath is one replayed round trip's critical-path analysis:
// the series index it occupied, the RTT the replay measured, and the
// innermost-span partition of that window.
type CapturedPath struct {
	Index int
	RTT   sim.Duration
	Path  *telemetry.CriticalPath
}

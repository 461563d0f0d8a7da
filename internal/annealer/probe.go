package annealer

import (
	"math"

	"repro/internal/telemetry"
)

// SweepObservation is one Monte-Carlo sweep's probe sample: where the
// schedule is, how the dynamics are moving, and what energy the current
// state sits at — the per-read visibility X-ResQ-style RA diagnosis
// needs. Energies are in the PROGRAMMED (normalized, post-ICE/drift)
// coefficient frame the engine actually evolves, not the caller's
// original scale.
type SweepObservation struct {
	// Read is the read index within the batch (stamped by Run).
	Read int
	// Sweep / TotalSweeps locate the observation in the schedule.
	Sweep, TotalSweeps int
	// TimeMicros is the simulated μs into the schedule; S the anneal
	// fraction s(t) there.
	TimeMicros float64
	S          float64
	// Energy is the problem-frame energy of the engine's current state:
	// SVMC reports its projected classical state, PIMC the mean over
	// Trotter replicas.
	Energy float64
	// ReplicaEnergies holds PIMC's per-replica problem energies (nil for
	// single-worldline engines).
	ReplicaEnergies []float64
	// Accepted / Proposed count this sweep's Metropolis decisions.
	Accepted, Proposed int
}

// Probe receives per-sweep observations from an engine. Probes run inside
// the read loop: implementations must be safe for concurrent use when
// Params.Parallelism > 1, must not mutate the observation's slices, and
// must not consume any RNG — the determinism regression test pins that a
// probed run's samples are bit-identical to an unprobed run's.
type Probe interface {
	ObserveSweep(ob SweepObservation)
}

// readProbe stamps the batch read index onto engine observations (a
// kernel sees a group's reads, not their indices in the batch).
type readProbe struct {
	p    Probe
	read int
}

func (rp readProbe) ObserveSweep(ob SweepObservation) {
	ob.Read = rp.read
	rp.p.ObserveSweep(ob)
}

// sampleEvery thins MetricsProbe's trace events to every k-th sweep;
// its histograms always see every observed sweep.
const sampleEvery = 64

// MetricsProbe is the standard Probe: it aggregates sweep observations
// into a telemetry registry (acceptance-rate and energy histograms) and
// optionally records a downsampled s(t)/energy trajectory as trace
// events. Both sinks are nil-safe, so either half can be wired alone.
type MetricsProbe struct {
	// Trace receives "sweep" events (one per sampleEvery sweeps per read,
	// plus each read's last sweep) with the schedule time, s(t), energy,
	// and acceptance counts.
	Trace *telemetry.Tracer
	// Metrics receives annealer_sweep_acceptance_rate and
	// annealer_sweep_energy histograms plus an observation counter.
	Metrics *telemetry.Registry
	// Engine labels the metrics series (e.g. "svmc", "pimc").
	Engine string
}

// ObserveSweep implements Probe.
func (mp *MetricsProbe) ObserveSweep(ob SweepObservation) {
	label := telemetry.Label{Key: "engine", Value: mp.Engine}
	if mp.Metrics != nil {
		mp.Metrics.Counter("annealer_sweeps_observed_total", label).Inc()
		if ob.Proposed > 0 {
			mp.Metrics.Histogram("annealer_sweep_acceptance_rate", 0, 1, 20, label).
				Observe(float64(ob.Accepted) / float64(ob.Proposed))
		}
		// Normalized-frame energies are O(N) for coupling magnitudes ≤ 1;
		// the fixed [-100, 100) window covers every paper-scale problem.
		mp.Metrics.Histogram("annealer_sweep_energy", -100, 100, 40, label).Observe(ob.Energy)
	}
	if mp.Trace != nil && (ob.Sweep%sampleEvery == 0 || ob.Sweep == ob.TotalSweeps-1) {
		attrs := make(telemetry.Attrs, 0, 7)
		attrs = append(attrs,
			telemetry.Int("accepted", ob.Accepted), telemetry.Float("energy", ob.Energy),
			telemetry.Int("proposed", ob.Proposed), telemetry.Int("read", ob.Read))
		if ob.ReplicaEnergies != nil {
			attrs = append(attrs, telemetry.Floats("replica_energies", append([]float64(nil), ob.ReplicaEnergies...)))
		}
		attrs = append(attrs, telemetry.Float("s", ob.S), telemetry.Int("sweep", ob.Sweep))
		mp.Trace.Event("sweep", ob.TimeMicros, attrs)
	}
}

// DeviceTiming models the per-call and per-read device overheads used to
// lay out trace spans on the simulated clock — the Table-1 decomposition
// of one QPU call into programming → anneal → readout. It affects ONLY
// telemetry emission, never results: span durations for a batch sum to
//
//	ProgrammingMicros + NumReads × (schedule duration + ReadoutMicros),
//
// the same budget QPU.ServiceTime reports.
type DeviceTiming struct {
	ProgrammingMicros float64
	ReadoutMicros     float64
}

// emitBatchTelemetry publishes one batch's spans and counters after the
// reads complete. faults has one entry per issued read (timed-out reads
// included — they occupy the device and are charged readout like any
// other read, so traced span durations reproduce the service-time
// budget).
func (p Params) emitBatchTelemetry(res *Result, faults []readFault) {
	if p.Trace == nil && p.Metrics == nil {
		return
	}
	var prog, readout float64
	if p.Timing != nil {
		prog, readout = p.Timing.ProgrammingMicros, p.Timing.ReadoutMicros
	}
	if p.Trace != nil {
		if prog > 0 {
			p.Trace.Span("qpu/program", 0, prog, nil)
		}
		t := prog
		for read, f := range faults {
			attrs := make(telemetry.Attrs, 0, 4)
			if f.drift {
				attrs = append(attrs, telemetry.Bool("drift", true))
			}
			if f.timeout {
				attrs = append(attrs, telemetry.String("fault", "read-timeout"))
			}
			attrs = append(attrs, telemetry.Int("read", read))
			if f.storm {
				attrs = append(attrs, telemetry.Bool("storm", true))
			}
			p.Trace.Span("qpu/anneal", t, t+res.ScheduleDuration, attrs)
			t += res.ScheduleDuration
			if readout > 0 {
				p.Trace.Span("qpu/readout", t, t+readout, telemetry.Attrs{telemetry.Int("read", read)})
				t += readout
			}
		}
		// Batch summary at the batch's (relative-clock) end: read yield,
		// fault tallies, and the surviving-sample energy statistics the SLO
		// monitor's device health scoring keys off.
		survived := len(res.Samples)
		sum, best := 0.0, math.Inf(1)
		for _, s := range res.Samples {
			sum += s.Energy
			if s.Energy < best {
				best = s.Energy
			}
		}
		stats := make(telemetry.Attrs, 0, 7)
		if survived > 0 {
			stats = append(stats, telemetry.Float("best_energy", best))
		}
		stats = append(stats, telemetry.Int("drifts", res.Faults.CalibrationDrifts), telemetry.Int("issued", len(faults)))
		if survived > 0 {
			stats = append(stats, telemetry.Float("mean_energy", sum/float64(survived)))
		}
		stats = append(stats,
			telemetry.Int("storms", res.Faults.ChainBreakStorms),
			telemetry.Int("survived", survived),
			telemetry.Int("timeouts", res.Faults.ReadTimeouts))
		p.Trace.Event("qpu/batch-stats", t, stats)
	}
	if p.Metrics != nil {
		p.Metrics.Counter("annealer_batches_total").Inc()
		p.Metrics.Counter("annealer_reads_issued_total").Add(float64(len(faults)))
		p.Metrics.Counter("annealer_reads_survived_total").Add(float64(len(res.Samples)))
		p.Metrics.Counter("annealer_anneal_micros_total").Add(res.TotalAnnealTime)
		emitFaultCounters(p.Metrics, res.Faults)
	}
}

// emitFaultCounters publishes soft-fault tallies by kind.
func emitFaultCounters(reg *telemetry.Registry, fs FaultStats) {
	if fs.ReadTimeouts > 0 {
		reg.Counter("annealer_faults_total", telemetry.Label{Key: "kind", Value: "read-timeout"}).Add(float64(fs.ReadTimeouts))
	}
	if fs.ChainBreakStorms > 0 {
		reg.Counter("annealer_faults_total", telemetry.Label{Key: "kind", Value: "chain-break-storm"}).Add(float64(fs.ChainBreakStorms))
	}
	if fs.CalibrationDrifts > 0 {
		reg.Counter("annealer_faults_total", telemetry.Label{Key: "kind", Value: "calibration-drift"}).Add(float64(fs.CalibrationDrifts))
	}
}

// emitHardFault publishes a batch-aborting fault (programming failure,
// all reads lost) to both sinks.
func (p Params) emitHardFault(kind FaultKind) {
	name := kind.String()
	if p.Trace != nil {
		p.Trace.Event("fault", 0, telemetry.Attrs{telemetry.String("kind", name)})
	}
	if p.Metrics != nil {
		p.Metrics.Counter("annealer_faults_total", telemetry.Label{Key: "kind", Value: name}).Inc()
	}
}

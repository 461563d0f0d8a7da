package experiments

import (
	"fmt"
	"io"

	"repro/internal/annealer"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/modulation"
)

// AvailabilityRow is one injected-fault rate's end-to-end service quality
// through the fleet's retry and classical-fallback ladder.
type AvailabilityRow struct {
	// ProgrammingFailureRate is the injected per-cycle QPU failure rate.
	ProgrammingFailureRate float64
	// Completed counts frames that produced an answer (must equal Frames:
	// the fallback guarantee), Errors the frames that did not.
	Completed, Errors int
	// Retries counts re-dispatches after a faulted programming cycle;
	// Fallbacks counts frames shed to the classical candidate.
	Retries, Fallbacks int
	FallbackRate       float64
	// DecodeRate is the fraction of frames decoded to the transmitted
	// symbols — the quality that degrades as fallbacks take over.
	DecodeRate float64
	// QuantumRate is the fraction of frames whose answer used the quantum
	// stage (1 − fallback rate).
	QuantumRate float64
	// MeanLatencyMicros and DeadlineMissRate come from the modelled
	// schedule, measured from each channel use's arrival.
	MeanLatencyMicros float64
	DeadlineMissRate  float64
}

// AvailabilityResult is the soft-failure study: availability of the
// staged classical-quantum pipeline as the simulated QPU degrades from
// healthy to failing more than half its programming cycles.
type AvailabilityResult struct {
	Rows   []AvailabilityRow
	Frames int
	// MaxAttempts states the fleet's retry policy: one re-dispatch,
	// immediately (0 μs backoff), before a frame is shed.
	MaxAttempts    int
	DeadlineMicros float64
}

// RunAvailability sweeps the QPU programming-failure rate for a fixed
// frame stream through the GS→RA stages on one fleet device. The paper's
// Challenge 3 pipelines stages against a hard ARQ deadline; this harness
// shows the robustness corollary: with bounded retries and the classical
// GS candidate as fallback, every frame is answered at any fault rate —
// fault pressure converts quality (decode rate, quantum share), not
// availability.
func RunAvailability(cfg Config) (*AvailabilityResult, error) {
	cfg = cfg.withDefaults()
	const (
		users          = 4
		frames         = 24
		intervalMicros = 400.0
		deadlineMicros = 4_000.0
		reads          = 60
	)
	insts, err := instance.Corpus(instance.Spec{Users: users, Scheme: modulation.QAM16},
		cfg.Seed^0xFA17, frames)
	if err != nil {
		return nil, err
	}
	arrivals := make([]float64, frames)
	for i := range arrivals {
		arrivals[i] = float64(i) * intervalMicros
	}
	res := &AvailabilityResult{
		Frames: frames, MaxAttempts: 2, DeadlineMicros: deadlineMicros,
	}
	for _, rate := range []float64{0, 0.1, 0.25, 0.5, 0.75} {
		dev := cfg.fleetDevice()
		dev.Faults = annealer.FaultModel{ProgrammingFailureRate: rate}
		served, err := runStaged(fleet.Config{
			Devices:  []fleet.Device{dev},
			NumReads: reads,
			Seed:     cfg.Seed ^ 6,
			Trace:    cfg.Trace,
			Metrics:  cfg.Metrics,
		}, insts, arrivals, 0)
		if err != nil {
			return nil, err
		}
		row := AvailabilityRow{ProgrammingFailureRate: rate}
		for _, o := range served.Outcomes {
			if len(o.Best.Spins) == 0 {
				row.Errors++
			} else {
				row.Completed++
			}
		}
		if row.Errors > 0 {
			return nil, fmt.Errorf("availability: %d frames unanswered at rate %.2f — fallback guarantee violated", row.Errors, rate)
		}
		st := stageTiming(arrivals, finishTimes(served.Outcomes), deadlineMicros)
		row.Retries = served.Report.Retries
		row.Fallbacks = served.Report.Shed
		row.FallbackRate = float64(row.Fallbacks) / float64(frames)
		row.QuantumRate = 1 - row.FallbackRate
		row.DecodeRate = float64(decodedFrames(insts, served.Outcomes)) / float64(frames)
		row.MeanLatencyMicros = st.MeanLatency
		row.DeadlineMissRate = st.DeadlineMissRate
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTable renders the study.
func (r *AvailabilityResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Availability under QPU soft failure (%d frames, ≤%d attempts, 0 μs backoff, %.0f μs deadline)\n",
		r.Frames, r.MaxAttempts, r.DeadlineMicros)
	writeRow(w, "fail_rate", "done", "retries", "fallbacks", "quantum", "decode", "mean_lat", "miss_rate")
	for _, row := range r.Rows {
		writeRow(w, row.ProgrammingFailureRate, row.Completed, row.Retries,
			row.Fallbacks, row.QuantumRate, row.DecodeRate,
			row.MeanLatencyMicros, row.DeadlineMissRate)
	}
}

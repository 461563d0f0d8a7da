// Retry/fallback layer: the robustness half of Challenge 3. A real cQ-RAN
// deployment cannot treat a QPU programming failure as a lost frame — the
// ARQ turn-around still expects an answer. A Retry-wrapped stage re-issues
// failed attempts (each with a fresh per-attempt RNG stream) under a
// bounded budget of simulated-μs backoff charged against the frame's
// deadline, and when attempts are exhausted — or further attempts could no
// longer meet the deadline — a Fallback answers the frame from what the
// classical stage already computed. Every frame gets an answer; quality
// degrades, availability doesn't.
package pipeline

import (
	"fmt"

	"repro/internal/telemetry"
)

// Fallback produces a degraded answer for a frame whose primary stage
// could not complete within its retry/deadline budget.
type Fallback interface {
	// Name identifies the fallback in reports.
	Name() string
	// Recover answers the frame and returns the modelled μs it charges.
	Recover(f *Frame) (serviceMicros float64, err error)
}

// Retry wraps a stage with bounded re-attempts, simulated-μs backoff, and
// a terminal fallback. The wrapped stage sees Frame.Attempt = 0, 1, 2, …
// so it can derive a fresh RNG stream per attempt (attempt 0 uses the
// exact stream an unwrapped stage would, keeping no-fault runs
// bit-identical to the unwrapped pipeline).
type Retry struct {
	// Stage is the primary processing unit.
	Stage Stage
	// MaxAttempts bounds the attempts per frame (default 2: one retry).
	MaxAttempts int
	// BackoffMicros is the simulated pause charged before each re-attempt
	// (default 0: immediate re-issue).
	BackoffMicros float64
	// BackoffFactor multiplies the backoff after each retry (default 2).
	BackoffFactor float64
	// Fallback answers the frame when attempts are exhausted or the
	// deadline budget is gone; nil re-raises the last stage error.
	Fallback Fallback
	// DisableDeadlineAbort keeps retrying even when the frame's charged
	// service time already exceeds its deadline. By default a frame whose
	// known service consumption can no longer meet the ARQ budget skips
	// straight to the fallback — the retry would be wasted device time.
	// (The check is against service time, a lower bound on latency;
	// queueing delay can still cause misses the policy cannot foresee.)
	DisableDeadlineAbort bool
	// Trace, when set, receives retry/attempt, retry/fault, retry/abort,
	// and retry/fallback events. Event timestamps are the frame's charged
	// SERVICE time so far (simulated μs consumed by completed stages plus
	// this wrapper's attempts and backoff) — a service-relative clock,
	// since absolute start times are only known to the later schedule
	// recurrence. Nil-safe.
	Trace *telemetry.Tracer
}

// Name implements Stage.
func (rt *Retry) Name() string { return rt.Stage.Name() + "+retry" }

// Process implements Stage: attempt, back off, re-attempt, fall back.
// The returned service time charges every attempt (failed calls still
// occupied the device), all backoff pauses, and the fallback's own cost.
func (rt *Retry) Process(f *Frame) (float64, error) {
	maxAttempts := rt.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 2
	}
	factor := rt.BackoffFactor
	if factor <= 0 {
		factor = 2
	}
	var charged float64
	var lastErr error
	backoff := rt.BackoffMicros
	reason := ""
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			charged += backoff
			f.Stats.BackoffMicros += backoff
			backoff *= factor
		}
		if !rt.DisableDeadlineAbort && f.Deadline > 0 && f.ServiceSoFar()+charged >= f.Deadline {
			reason = "deadline"
			if rt.Trace != nil {
				rt.Trace.Event("retry/abort", f.ServiceSoFar()+charged, telemetry.Attrs{
					telemetry.Int("attempt", attempt), telemetry.Float("deadline_us", f.Deadline),
					telemetry.Int("frame", f.Seq),
				})
			}
			break
		}
		f.Attempt = attempt
		f.Stats.Attempts++
		if attempt > 0 {
			f.Stats.Retries++
			if rt.Trace != nil {
				rt.Trace.Event("retry/attempt", f.ServiceSoFar()+charged, telemetry.Attrs{
					telemetry.Int("attempt", attempt), telemetry.Int("frame", f.Seq),
					telemetry.String("stage", rt.Stage.Name()),
				})
			}
		}
		micros, err := rt.Stage.Process(f)
		f.Attempt = 0
		charged += micros
		if err == nil {
			return charged, nil
		}
		lastErr = err
		f.Stats.FaultedAttempts++
		if rt.Trace != nil {
			rt.Trace.Event("retry/fault", f.ServiceSoFar()+charged, telemetry.Attrs{
				telemetry.Int("attempt", attempt), telemetry.String("error", err.Error()),
				telemetry.Int("frame", f.Seq),
			})
		}
	}
	if reason == "" {
		reason = "retries-exhausted"
	}
	if rt.Fallback == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("pipeline: %s: deadline budget exhausted before any attempt", rt.Stage.Name())
		}
		return charged, lastErr
	}
	micros, err := rt.Fallback.Recover(f)
	if err != nil {
		return charged, fmt.Errorf("pipeline: fallback %s: %w", rt.Fallback.Name(), err)
	}
	f.Stats.FellBack = true
	f.Stats.FallbackReason = reason
	if rt.Trace != nil {
		rt.Trace.Event("retry/fallback", f.ServiceSoFar()+charged+micros, telemetry.Attrs{
			telemetry.String("fallback", rt.Fallback.Name()), telemetry.Int("frame", f.Seq),
			telemetry.String("reason", reason),
		})
	}
	return charged + micros, nil
}

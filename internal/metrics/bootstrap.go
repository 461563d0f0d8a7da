package metrics

import (
	"math"

	"repro/internal/rng"
)

// CI is a two-sided confidence interval around a point estimate.
type CI struct {
	Value float64 `json:"value"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	// Confidence is the nominal coverage in percent (e.g. 95).
	Confidence float64 `json:"confidence"`
	// N is the number of underlying observations.
	N int `json:"n"`
}

// Overlaps reports whether two intervals share any point. Degenerate
// (Lo == Hi) intervals are handled like any other; an interval with a
// NaN endpoint overlaps nothing.
func (c CI) Overlaps(o CI) bool {
	if math.IsNaN(c.Lo) || math.IsNaN(c.Hi) || math.IsNaN(o.Lo) || math.IsNaN(o.Hi) {
		return false
	}
	return c.Lo <= o.Hi && o.Lo <= c.Hi
}

// Above reports whether the whole interval clears x from above (Lo > x).
func (c CI) Above(x float64) bool { return !math.IsNaN(c.Lo) && c.Lo > x }

// Below reports whether the whole interval lies under x (Hi < x).
func (c CI) Below(x float64) bool { return !math.IsNaN(c.Hi) && c.Hi < x }

// BootstrapCI estimates a percentile-bootstrap confidence interval for
// stat(xs): `resamples` with-replacement resamples of xs are drawn from r,
// the statistic is evaluated on each, and the (α/2, 1−α/2) percentiles of
// the bootstrap distribution bound the interval. The point estimate is
// stat on the original data. Deterministic for a fixed r stream. Empty
// input yields a NaN estimate with a NaN interval; confidence must lie in
// (0, 100).
func BootstrapCI(xs []float64, stat func([]float64) float64, resamples int, confidence float64, r *rng.Source) CI {
	if confidence <= 0 || confidence >= 100 {
		panic("metrics: bootstrap confidence must lie in (0, 100)")
	}
	if resamples <= 0 {
		panic("metrics: bootstrap needs at least one resample")
	}
	ci := CI{Confidence: confidence, N: len(xs)}
	if len(xs) == 0 {
		ci.Value, ci.Lo, ci.Hi = math.NaN(), math.NaN(), math.NaN()
		return ci
	}
	ci.Value = stat(xs)
	dist := make([]float64, resamples)
	scratch := make([]float64, len(xs))
	for b := 0; b < resamples; b++ {
		for i := range scratch {
			scratch[i] = xs[r.Intn(len(xs))]
		}
		dist[b] = stat(scratch)
	}
	alpha := (100 - confidence) / 2
	ci.Lo = Percentile(dist, alpha)
	ci.Hi = Percentile(dist, 100-alpha)
	return ci
}

// BootstrapMeanCI is BootstrapCI with the arithmetic mean.
func BootstrapMeanCI(xs []float64, resamples int, confidence float64, r *rng.Source) CI {
	return BootstrapCI(xs, Mean, resamples, confidence, r)
}

// BootstrapCI2 is the two-sample analogue: xs and ys are resampled
// independently and stat(xs*, ys*) is evaluated on each pair — the
// construction for ratio and difference statistics between two solver
// arms (e.g. p★_RA / p★_FA). Either sample being empty yields NaNs.
func BootstrapCI2(xs, ys []float64, stat func(xs, ys []float64) float64, resamples int, confidence float64, r *rng.Source) CI {
	if confidence <= 0 || confidence >= 100 {
		panic("metrics: bootstrap confidence must lie in (0, 100)")
	}
	if resamples <= 0 {
		panic("metrics: bootstrap needs at least one resample")
	}
	ci := CI{Confidence: confidence, N: len(xs) + len(ys)}
	if len(xs) == 0 || len(ys) == 0 {
		ci.Value, ci.Lo, ci.Hi = math.NaN(), math.NaN(), math.NaN()
		return ci
	}
	ci.Value = stat(xs, ys)
	dist := make([]float64, resamples)
	sx := make([]float64, len(xs))
	sy := make([]float64, len(ys))
	for b := 0; b < resamples; b++ {
		for i := range sx {
			sx[i] = xs[r.Intn(len(xs))]
		}
		for i := range sy {
			sy[i] = ys[r.Intn(len(ys))]
		}
		dist[b] = stat(sx, sy)
	}
	alpha := (100 - confidence) / 2
	ci.Lo = Percentile(dist, alpha)
	ci.Hi = Percentile(dist, 100-alpha)
	return ci
}

// BernoulliVector expands (successes, trials) into the 0/1 sample vector
// bootstrap resampling operates on — the per-read success indicators the
// figure harnesses aggregate away.
func BernoulliVector(successes, trials int) []float64 {
	if trials < 0 || successes < 0 || successes > trials {
		panic("metrics: malformed Bernoulli counts")
	}
	xs := make([]float64, trials)
	for i := 0; i < successes; i++ {
		xs[i] = 1
	}
	return xs
}

// WilsonCI packages WilsonInterval as a CI (95% only, matching the
// z = 1.96 constant of WilsonInterval).
func WilsonCI(successes, trials int) CI {
	lo, hi := WilsonInterval(successes, trials)
	v := math.NaN()
	if trials > 0 {
		v = float64(successes) / float64(trials)
	}
	return CI{Value: v, Lo: lo, Hi: hi, Confidence: 95, N: trials}
}

package slo

import (
	"math"
	"sort"

	"repro/internal/metrics"
)

// Health scoring's constants.
const (
	// healthAlpha is the EWMA smoothing factor.
	healthAlpha = 0.2
	// healthZMax is the robust z-score at which a device's score reaches
	// 0. A device is Suspect at z ≥ healthZMax/2.
	healthZMax = 4
	// healthMinFrames is the per-device frame count below which the
	// device is scored 1.0 unconditionally: too little evidence to indict.
	healthMinFrames = 8
)

// AnnealObs is one frame's anneal-quality observation, extracted from a
// "fleet/anneal-stats" trace event.
type AnnealObs struct {
	At          float64
	Shard       string
	Device      int
	Stream, Seq int
	// Residual is meanSampleEnergy − candidateEnergy: how much worse the
	// device's typical sample is than the frame's own classical candidate.
	// The candidate is device-independent, so residuals are comparable
	// across devices; a drifting device anneals a perturbed Hamiltonian
	// and lands systematically higher on the true problem.
	Residual float64
	// ChainBreakRate is the batch's broken-chain fraction.
	ChainBreakRate float64
	// HardFault marks a frame whose batch lost every read.
	HardFault bool
}

// DeviceHealth is one device's scored health.
type DeviceHealth struct {
	Shard  string `json:"shard,omitempty"`
	Device int    `json:"device"`
	Frames int    `json:"frames"`
	// EWMAResidual and EWMAChainBreak are the smoothed quality signals.
	EWMAResidual   float64 `json:"ewma_residual"`
	EWMAChainBreak float64 `json:"ewma_chain_break"`
	// ZResidual and ZChainBreak are robust z-scores against the fleet's
	// median/MAD — "how many robust deviations worse than the typical
	// device".
	ZResidual   float64 `json:"z_residual"`
	ZChainBreak float64 `json:"z_chain_break"`
	// Score ∈ [0, 1]: 1 healthy, 0 fully indicted. A dashboard
	// diagnostic only: no scheduler reads it.
	Score float64 `json:"score"`
	// Suspect marks devices at z ≥ healthZMax/2 on either signal.
	Suspect bool `json:"suspect,omitempty"`
}

// ScoreDevices computes per-(shard, device) health from anneal
// observations. The observations are sorted by (At, Shard, Stream, Seq)
// before the order-sensitive EWMA pass, so host-scheduling arrival order
// cannot change a score. Scoring is relative within each shard's fleet:
// a device is unhealthy when its smoothed residual or chain-break rate
// is a robust outlier against the shard's median.
func ScoreDevices(obs []AnnealObs) []DeviceHealth {
	sorted := append([]AnnealObs(nil), obs...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].At != sorted[b].At {
			return sorted[a].At < sorted[b].At
		}
		if sorted[a].Shard != sorted[b].Shard {
			return sorted[a].Shard < sorted[b].Shard
		}
		if sorted[a].Stream != sorted[b].Stream {
			return sorted[a].Stream < sorted[b].Stream
		}
		return sorted[a].Seq < sorted[b].Seq
	})

	type key struct {
		shard  string
		device int
	}
	acc := make(map[key]*DeviceHealth)
	var order []key
	for _, ob := range sorted {
		if ob.Device < 0 {
			continue
		}
		k := key{ob.Shard, ob.Device}
		h := acc[k]
		if h == nil {
			h = &DeviceHealth{Shard: ob.Shard, Device: ob.Device}
			acc[k] = h
			order = append(order, k)
		}
		res, cbr := ob.Residual, ob.ChainBreakRate
		if ob.HardFault {
			// A lost batch carries no energies; treat it as a fully broken
			// read set so hard-faulting devices do not look pristine.
			res, cbr = 0, 1
		}
		if h.Frames == 0 {
			h.EWMAResidual, h.EWMAChainBreak = res, cbr
		} else {
			h.EWMAResidual += healthAlpha * (res - h.EWMAResidual)
			h.EWMAChainBreak += healthAlpha * (cbr - h.EWMAChainBreak)
		}
		h.Frames++
	}

	sort.Slice(order, func(a, b int) bool {
		if order[a].shard != order[b].shard {
			return order[a].shard < order[b].shard
		}
		return order[a].device < order[b].device
	})

	// Robust z against each shard's fleet.
	byShard := make(map[string][]*DeviceHealth)
	for _, k := range order {
		byShard[k.shard] = append(byShard[k.shard], acc[k])
	}
	for _, fleet := range byShard {
		resMed, resMAD := medianMAD(collect(fleet, func(h *DeviceHealth) float64 { return h.EWMAResidual }))
		cbrMed, cbrMAD := medianMAD(collect(fleet, func(h *DeviceHealth) float64 { return h.EWMAChainBreak }))
		for _, h := range fleet {
			h.ZResidual = robustZ(h.EWMAResidual, resMed, resMAD)
			h.ZChainBreak = robustZ(h.EWMAChainBreak, cbrMed, cbrMAD)
			z := math.Max(h.ZResidual, h.ZChainBreak)
			h.Score = clamp01(1 - math.Max(0, z)/healthZMax)
			h.Suspect = z >= healthZMax/2
			if h.Frames < healthMinFrames {
				h.Score, h.Suspect = 1, false
			}
		}
	}

	out := make([]DeviceHealth, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	return out
}

func collect(hs []*DeviceHealth, f func(*DeviceHealth) float64) []float64 {
	out := make([]float64, len(hs))
	for i, h := range hs {
		out[i] = f(h)
	}
	return out
}

// medianMAD returns the median and median-absolute-deviation.
func medianMAD(xs []float64) (med, mad float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	med = metrics.Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return med, metrics.Median(dev)
}

// robustZ is (x − med)/(1.4826·MAD), with a floor on the scale so a
// perfectly uniform fleet (MAD 0) yields z = 0 rather than ±Inf.
func robustZ(x, med, mad float64) float64 {
	scale := 1.4826 * mad
	if scale < 1e-12 {
		if math.Abs(x-med) < 1e-12 {
			return 0
		}
		// Distinct value against a zero-spread fleet: infinitely unusual;
		// cap at a large finite z so scores stay well-defined.
		if x > med {
			return 1e6
		}
		return -1e6
	}
	return (x - med) / scale
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

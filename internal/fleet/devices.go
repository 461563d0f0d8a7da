package fleet

import (
	"strings"

	"repro/internal/annealer"
)

// DefaultDevices builds a heterogeneous pool of n simulated 2000Q-class
// QPUs, the mix the experiments and CLIs serve from: devices alternate
// between the calibrated and stock hardware profiles, carry slightly
// different programming/readout overheads and clock rates (no two
// deployed devices are identical), and the odd devices run with
// device-typical ICE control error. Each device's QPU keeps Chains off:
// frames anneal as logical problems, charged the QPU's programming and
// readout and held to its clique capacity.
func DefaultDevices(n int) []Device {
	devs := make([]Device, n)
	for i := range devs {
		q := annealer.NewQPU2000Q()
		// ±10% spread in device overheads and clock rate across the
		// pool; device 0 is nominal so a single-device fleet is the
		// unbiased scaling baseline.
		spread := 1 + 0.1*float64((i+1)%3-1)
		q.ProgrammingTime *= spread
		q.ReadoutTime *= spread
		prof := annealer.CalibratedProfile()
		if i%2 == 1 {
			prof = annealer.DWave2000QProfile()
		}
		d := Device{
			QPU:                  q,
			Profile:              &prof,
			SweepsPerMicrosecond: 30 * spread,
		}
		if i%2 == 1 {
			d.ICE = annealer.DWave2000QICE()
		}
		devs[i] = d
	}
	return devs
}

// HybridDevices builds a mixed pool: nQPU simulated 2000Q-class QPUs (as
// DefaultDevices, so the quantum half of a hybrid fleet is comparable to
// the homogeneous baselines) followed by nPT parallel-tempering and nSA
// simulated-annealing classical workers with default parameters.
func HybridDevices(nQPU, nPT, nSA int) []Device {
	devs := DefaultDevices(nQPU)
	for i := 0; i < nPT; i++ {
		devs = append(devs, Device{Backend: BackendParallelTempering})
	}
	for i := 0; i < nSA; i++ {
		devs = append(devs, Device{Backend: BackendSimulatedAnnealing})
	}
	return devs
}

// ParseBackends builds a pool from a comma-separated backend list (e.g.
// "qpu,qpu,pt,sa"). QPU entries take the DefaultDevices hardware spread,
// positioned by their index in the list; classical entries take default
// parameters.
func ParseBackends(spec string) ([]Device, error) {
	parts := strings.Split(spec, ",")
	nQPU := 0
	for _, p := range parts {
		if k, err := ParseBackendKind(strings.TrimSpace(p)); err == nil && k == BackendQPUSim {
			nQPU++
		}
	}
	qpus := DefaultDevices(nQPU)
	devs := make([]Device, 0, len(parts))
	qi := 0
	for _, p := range parts {
		k, err := ParseBackendKind(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if k == BackendQPUSim {
			devs = append(devs, qpus[qi])
			qi++
			continue
		}
		devs = append(devs, Device{Backend: k})
	}
	return devs, nil
}

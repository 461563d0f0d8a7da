//go:build !amd64

package annealer

// Non-amd64 builds run every SVMC proposal step in Go (svmcFinishStep)
// and take the one-read simulated-annealing path; hasBatchSIMD gates
// every call site, so the stubs below are unreachable.
var hasBatchSIMD = false

func svmcStepx8(a *svmcStepArgs) bool {
	panic("annealer: svmcStepx8 without SIMD support")
}

func saStepx8(a *saStepArgs) bool {
	panic("annealer: saStepx8 without SIMD support")
}

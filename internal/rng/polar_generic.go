//go:build !amd64

package rng

// polarScale is polarScaleGo off amd64; see polar_amd64.go.
func polarScale(uv, s []float64) { polarScaleGo(uv, s) }

package rng

// polarScale scales accepted polar pairs into normals (see
// polarScaleGo): four pairs at a time in polar_amd64.s, the rest in Go.
// On amd64 math.Log is the assembly archLog, and polarScale4 repeats
// its instruction sequence on packed doubles, without FMA, so every
// value is bit-identical to NormFloat64's.
func polarScale(uv, s []float64) {
	blocks := len(s) / 4
	if blocks > 0 {
		polarScale4(&uv[0], &s[0], blocks)
	}
	polarScaleGo(uv[8*blocks:], s[4*blocks:])
}

// polarScale4 scales 4·blocks pairs: uv holds 8·blocks values and s
// 4·blocks radii, each in (0, 1), so the log needs none of archLog's
// special cases.
//
//go:noescape
func polarScale4(uv, s *float64, blocks int)

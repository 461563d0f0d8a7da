package experiments

import (
	"math"
	"strings"
	"testing"
)

// The figure result helpers are consumed by the validation harness on
// arbitrary (possibly empty or degenerate) sweeps; these tables pin their
// edge behavior: empty sweeps answer (0, false)-style "not found", single
// points behave like one-element runs, and thresholds are inclusive.

func TestFig8WindowAndBestTTSTable(t *testing.T) {
	const ra Fig8Solver = "RA-dE10"
	mk := func(ps ...float64) *Fig8Result {
		r := &Fig8Result{Confidence: 99}
		for i, p := range ps {
			r.add(ra, 0.25+0.04*float64(i), p, 2.0, math.NaN(), int(p*100), 100)
		}
		return r
	}
	t.Run("empty sweep", func(t *testing.T) {
		r := mk()
		if _, ok := r.BestTTS(ra); ok {
			t.Fatal("empty sweep reported a best-TTS point")
		}
		if _, _, ok := r.FamilySuccessWindow(); ok {
			t.Fatal("empty sweep reported a family window")
		}
		if _, ok := r.BestFamilyTTS(); ok {
			t.Fatal("empty sweep reported a family best TTS")
		}
	})
	t.Run("all-zero p-star", func(t *testing.T) {
		r := mk(0, 0, 0)
		if _, _, ok := r.FamilySuccessWindow(); ok {
			t.Fatal("all-zero sweep has no window")
		}
		if _, ok := r.BestTTS(ra); ok {
			t.Fatal("all-zero sweep has no finite TTS")
		}
	})
	t.Run("single positive point", func(t *testing.T) {
		r := mk(0.3)
		lo, hi, ok := r.FamilySuccessWindow()
		if !ok || lo != hi || lo != 0.25 {
			t.Fatalf("window = (%g, %g, %v), want single point at 0.25", lo, hi, ok)
		}
		best, ok := r.BestTTS(ra)
		if !ok || best.Sp != 0.25 {
			t.Fatalf("best = %+v, %v", best, ok)
		}
	})
	t.Run("window with interior zero", func(t *testing.T) {
		r := mk(0, 0.2, 0, 0.4, 0)
		lo, hi, ok := r.FamilySuccessWindow()
		if !ok || lo != 0.29 || hi != 0.37 {
			t.Fatalf("window = (%g, %g, %v), want (0.29, 0.37)", lo, hi, ok)
		}
		best, ok := r.BestTTS(ra)
		if !ok || best.Sp != 0.37 {
			t.Fatalf("best-TTS point %+v, want the p=0.4 point", best)
		}
	})
}

func TestFig7MonotoneTable(t *testing.T) {
	mk := func(ps ...float64) *Fig7Result {
		r := &Fig7Result{}
		for i, p := range ps {
			r.Points = append(r.Points, Fig7Point{DeltaEIS: float64(i), PStar: p})
		}
		return r
	}
	cases := []struct {
		name string
		res  *Fig7Result
		want bool
	}{
		{"empty", mk(), false},
		{"single point", mk(0.5), false},
		{"degrading", mk(0.9, 0.5, 0.1), true},
		{"flat (within tolerance)", mk(0.5, 0.5), true},
		{"improving", mk(0.1, 0.9), false},
	}
	for _, tc := range cases {
		if got := tc.res.Monotone(); got != tc.want {
			t.Errorf("%s: Monotone = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Empty results must render their tables without panicking — the
// validation harness writes tables for whatever it got back.
func TestWriteTableEmptyResults(t *testing.T) {
	var sb strings.Builder
	(&Fig3Result{}).WriteTable(&sb)
	(&Fig4Result{}).WriteTable(&sb)
	(&Fig6Result{}).WriteTable(&sb)
	(&Fig7Result{}).WriteTable(&sb)
	(&Fig8Result{}).WriteTable(&sb)
	(&HeadlineResult{}).WriteTable(&sb)
	(&FleetScalingResult{}).WriteTable(&sb)
	(&PipelineResult{}).WriteTable(&sb)
	if !strings.Contains(sb.String(), "Figure 3") || !strings.Contains(sb.String(), "Fleet scaling") {
		t.Fatal("headers missing from empty-table rendering")
	}
}

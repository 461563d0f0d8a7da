package pipeline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/rng"
)

func validationCorpus(t *testing.T) []*instance.Instance {
	t.Helper()
	insts, err := instance.Corpus(instance.Spec{Users: 2, Scheme: modulation.BPSK}, 31, 3)
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

// TestGenerateFramesValidation pins the arrival-parameter contract:
// interval 0 (full backlog) and deadline 0 (no deadline) are valid, while
// negative and non-finite values are rejected with errors instead of
// silently producing inverted or NaN arrival times.
func TestGenerateFramesValidation(t *testing.T) {
	insts := validationCorpus(t)
	cases := []struct {
		name               string
		interval, deadline float64
		wantErr            string
	}{
		{"valid", 100, 500, ""},
		{"zero interval valid", 0, 500, ""},
		{"zero deadline valid", 100, 0, ""},
		{"both zero valid", 0, 0, ""},
		{"negative interval", -1, 500, "interval must be non-negative"},
		{"NaN interval", math.NaN(), 500, "interval must be finite"},
		{"+Inf interval", math.Inf(1), 500, "interval must be finite"},
		{"-Inf interval", math.Inf(-1), 500, "interval must be finite"},
		{"negative deadline", 100, -2, "deadline must be non-negative"},
		{"NaN deadline", 100, math.NaN(), "deadline must be finite"},
		{"Inf deadline", 100, math.Inf(1), "deadline must be finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames, err := GenerateFrames(insts, tc.interval, tc.deadline)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(frames) != len(insts) {
					t.Fatalf("%d frames for %d instances", len(frames), len(insts))
				}
				return
			}
			if err == nil {
				t.Fatalf("interval=%v deadline=%v accepted", tc.interval, tc.deadline)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if frames != nil {
				t.Fatal("frames returned alongside an error")
			}
		})
	}
}

// TestGenerateFramesPoissonValidation: an exponential with mean ≤ 0 is
// not a distribution, so unlike the periodic generator a zero interval is
// an error here; the deadline contract matches GenerateFrames.
func TestGenerateFramesPoissonValidation(t *testing.T) {
	insts := validationCorpus(t)
	cases := []struct {
		name           string
		mean, deadline float64
		r              *rng.Source
		wantErr        string
	}{
		{"valid", 100, 500, rng.New(7), ""},
		{"zero deadline valid", 100, 0, rng.New(7), ""},
		{"zero mean", 0, 500, rng.New(7), "mean interval must be positive"},
		{"negative mean", -10, 500, rng.New(7), "mean interval must be positive"},
		{"NaN mean", math.NaN(), 500, rng.New(7), "mean interval must be finite"},
		{"Inf mean", math.Inf(1), 500, rng.New(7), "mean interval must be finite"},
		{"negative deadline", 100, -1, rng.New(7), "deadline must be non-negative"},
		{"NaN deadline", 100, math.NaN(), rng.New(7), "deadline must be finite"},
		{"nil rng", 100, 500, nil, "need an RNG source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames, err := GenerateFramesPoisson(insts, tc.mean, tc.deadline, tc.r)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(frames) != len(insts) {
					t.Fatalf("%d frames for %d instances", len(frames), len(insts))
				}
				return
			}
			if err == nil {
				t.Fatalf("mean=%v deadline=%v accepted", tc.mean, tc.deadline)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

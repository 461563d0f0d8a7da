package validate

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestClaimRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.Name == "" || c.Figure == "" || c.Statement == "" || c.Eval == nil {
			t.Fatalf("incomplete claim %+v", c)
		}
		if seen[c.Name] {
			t.Fatalf("duplicate claim name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(seen) != 9 {
		t.Fatalf("expected the 9 registered claims, got %d", len(seen))
	}
}

func TestGradeHelpers(t *testing.T) {
	above := metrics.CI{Value: 2, Lo: 1.6, Hi: 2.4}
	below := metrics.CI{Value: 0.5, Lo: 0.2, Hi: 0.9}
	straddle := metrics.CI{Value: 1.1, Lo: 0.8, Hi: 1.4}

	if e := gradeAbove("m", above, 1.5); e.Verdict != Pass || e.Stop != "ci-cleared" {
		t.Fatalf("gradeAbove clear: %+v", e)
	}
	if e := gradeAbove("m", below, 1.5); e.Verdict != Fail || e.Stop != "ci-crossed" {
		t.Fatalf("gradeAbove cross: %+v", e)
	}
	if e := gradeAbove("m", straddle, 1.0); e.Verdict != "" {
		t.Fatalf("gradeAbove undecided: %+v", e)
	}
	if e := gradeBelow("m", below, 1.0); e.Verdict != Pass {
		t.Fatalf("gradeBelow clear: %+v", e)
	}
	if e := gradeBelow("m", above, 1.0); e.Verdict != Fail {
		t.Fatalf("gradeBelow cross: %+v", e)
	}
	nan := metrics.CI{Value: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	if e := gradeAbove("m", nan, 1.0); e.Verdict != "" {
		t.Fatalf("NaN CI must stay undecided, got %+v", e)
	}
}

func TestCombineVerdicts(t *testing.T) {
	cases := []struct {
		name string
		in   []Verdict
		want Verdict
	}{
		{"empty", nil, Inconclusive},
		{"all pass", []Verdict{Pass, Pass}, Pass},
		{"any fail wins", []Verdict{Pass, Fail, Inconclusive}, Fail},
		{"undecided is inconclusive", []Verdict{Pass, ""}, Inconclusive},
		{"inconclusive sticks", []Verdict{Inconclusive, Pass}, Inconclusive},
	}
	for _, tc := range cases {
		var ests []Estimate
		for _, v := range tc.in {
			ests = append(ests, Estimate{Verdict: v})
		}
		if got := combine(ests); got != tc.want {
			t.Errorf("%s: combine = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestOptionsDefaultsAndInjection(t *testing.T) {
	o := Options{}.withDefaults()
	if cfg := o.config(); cfg.Seed != 2020 || cfg.Instances != 3 || cfg.Reads != 150 || o.BatchReads <= 0 || o.MaxReads <= 0 {
		t.Fatalf("defaults not applied: %+v, %+v", o, cfg)
	}
	slashed := Options{Inject: "reads-slashed"}.withDefaults()
	if slashed.MaxReads != (o.MaxReads+9)/10 {
		t.Fatalf("reads-slashed kept MaxReads = %d (want %d)", slashed.MaxReads, (o.MaxReads+9)/10)
	}
}

func TestReportFailuresAndTable(t *testing.T) {
	rep := &Report{
		Seed: 2020, Confidence: 95, Inject: "ra-degraded",
		Claims: []ClaimResult{
			{Name: "a", Statement: "sa", Verdict: Pass,
				Estimates: []Estimate{{Metric: "m1", Gate: 1.5, Op: ">", Verdict: Pass, Stop: "ci-cleared", Batches: 2}}},
			{Name: "b", Statement: "sb", Verdict: Fail},
			{Name: "c", Statement: "sc", Verdict: Inconclusive, Err: "boom"},
		},
	}
	if got := rep.Failures(); got != 2 {
		t.Fatalf("Failures = %d, want 2", got)
	}
	var sb strings.Builder
	rep.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"ra-degraded", "m1", "boom", "1 pass, 1 fail, 1 inconclusive"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// The cheap instance-counting claim doubles as the sequential-sampler
// integration test: deterministic, and decided from a fixed seed.
func TestFig3ClaimDeterministicPass(t *testing.T) {
	eval := claimByName(t, "fig3-simplification")
	run := func() ([]Estimate, int) {
		ests, reads, err := eval(NewEnv(Options{}))
		if err != nil {
			t.Fatal(err)
		}
		return ests, reads
	}
	e1, r1 := run()
	e2, r2 := run()
	if r1 != r2 || len(e1) != len(e2) {
		t.Fatalf("non-deterministic claim: %d/%d reads", r1, r2)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("estimate %d differs across identical runs:\n%+v\n%+v", i, e1[i], e2[i])
		}
		if e1[i].Verdict != Pass {
			t.Fatalf("estimate %+v did not pass", e1[i])
		}
	}
}

func claimByName(t *testing.T, name string) func(*Env) ([]Estimate, int, error) {
	t.Helper()
	for _, c := range Claims() {
		if c.Name == name {
			return c.Eval
		}
	}
	t.Fatalf("claim %q not registered", name)
	return nil
}

package annealer

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/rng"
)

func TestFaultModelValidate(t *testing.T) {
	cases := []FaultModel{
		{ProgrammingFailureRate: -0.1},
		{ProgrammingFailureRate: 1.1},
		{ReadTimeoutRate: 2},
		{ChainBreakStormRate: -1},
		{StormFlipFraction: 1.5},
		{CalibrationDriftRate: 7},
		{DriftSigma: -0.1},
	}
	for i, fm := range cases {
		if fm.Validate() == nil {
			t.Fatalf("case %d: invalid fault model accepted: %+v", i, fm)
		}
	}
	if (FaultModel{}).Validate() != nil {
		t.Fatal("zero fault model rejected")
	}
	if (FaultModel{}).Enabled() {
		t.Fatal("zero fault model reports enabled")
	}
	// withDefaults carries the validation into Run.
	fa, _ := Forward(1, 0.41, 1)
	is := ferroChain(4)
	if _, err := Run(is, Params{Schedule: fa, Faults: FaultModel{ReadTimeoutRate: -1}}, rng.New(1)); err == nil {
		t.Fatal("Run accepted an invalid fault model")
	}
}

// TestWithDefaultsRejectsBadKnobs: negative parallelism and over-limit
// read counts are configuration errors, not silent misbehaviour.
func TestWithDefaultsRejectsBadKnobs(t *testing.T) {
	fa, _ := Forward(1, 0.41, 1)
	is := ferroChain(4)
	if _, err := Run(is, Params{Schedule: fa, Parallelism: -1}, rng.New(1)); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if _, err := Run(is, Params{Schedule: fa, NumReads: MaxReads + 1}, rng.New(1)); err == nil {
		t.Fatal("over-limit NumReads accepted")
	}
	if _, err := NewQPU2000Q().Run(is, Params{Schedule: fa, Parallelism: -3}, rng.New(1)); err == nil {
		t.Fatal("QPU accepted negative parallelism")
	}
}

func TestProgrammingFailureIsTyped(t *testing.T) {
	fa, _ := Forward(1, 0.41, 1)
	is := ferroChain(6)
	_, err := Run(is, Params{Schedule: fa, NumReads: 5, SweepsPerMicrosecond: 50,
		Faults: FaultModel{ProgrammingFailureRate: 1}}, rng.New(3))
	if err == nil {
		t.Fatal("certain programming failure did not error")
	}
	fe, ok := AsFault(err)
	if !ok || fe.Kind != FaultProgramming {
		t.Fatalf("error %v is not a programming FaultError", err)
	}
	// The embedded path surfaces the same typed error.
	_, err = chainQPU().Run(is, Params{Schedule: fa, NumReads: 5, SweepsPerMicrosecond: 50,
		Faults: FaultModel{ProgrammingFailureRate: 1}}, rng.New(3))
	if fe, ok := AsFault(err); !ok || fe.Kind != FaultProgramming {
		t.Fatalf("QPU error %v is not a programming FaultError", err)
	}
}

func TestReadTimeoutsDropReadsDeterministically(t *testing.T) {
	fa, _ := Forward(1, 0.41, 1)
	is := frustrated(8, 7)
	p := Params{Schedule: fa, NumReads: 40, SweepsPerMicrosecond: 50,
		Faults: FaultModel{ReadTimeoutRate: 0.4}}
	a, err := Run(is, p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults.ReadTimeouts == 0 {
		t.Fatal("40% timeout rate produced no timeouts in 40 reads")
	}
	if len(a.Samples)+a.Faults.ReadTimeouts != 40 {
		t.Fatalf("%d samples + %d timeouts ≠ 40 reads", len(a.Samples), a.Faults.ReadTimeouts)
	}
	// Timed-out reads still occupy the device.
	if a.TotalAnnealTime != 40*fa.Duration() {
		t.Fatalf("total anneal time %v does not charge lost reads", a.TotalAnnealTime)
	}
	b, err := Run(is, p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Samples) != len(a.Samples) || b.Faults != a.Faults {
		t.Fatal("same-seed faulty runs diverged")
	}
}

func TestAllReadsLostIsTyped(t *testing.T) {
	fa, _ := Forward(1, 0.41, 1)
	is := ferroChain(6)
	_, err := Run(is, Params{Schedule: fa, NumReads: 10, SweepsPerMicrosecond: 50,
		Faults: FaultModel{ReadTimeoutRate: 1}}, rng.New(5))
	if fe, ok := AsFault(err); !ok || fe.Kind != FaultAllReadsLost {
		t.Fatalf("error %v is not an all-reads-lost FaultError", err)
	}
}

// TestChainBreakStormCorruptsReadout: a storm on every read of an easy
// problem must visibly degrade sample quality (the storm happens after
// the quench, so it is raw readout corruption).
func TestChainBreakStormCorruptsReadout(t *testing.T) {
	is := ferroChain(10)
	fa, _ := Forward(1, 0.41, 1)
	clean, err := Run(is, Params{Schedule: fa, NumReads: 30, SweepsPerMicrosecond: 100}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	stormy, err := Run(is, Params{Schedule: fa, NumReads: 30, SweepsPerMicrosecond: 100,
		Faults: FaultModel{ChainBreakStormRate: 1, StormFlipFraction: 0.5}}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if stormy.Faults.ChainBreakStorms != 30 {
		t.Fatalf("storm count %d, want 30", stormy.Faults.ChainBreakStorms)
	}
	if meanEnergy(stormy.Samples) <= meanEnergy(clean.Samples) {
		t.Fatalf("storms did not degrade mean energy: %v vs %v",
			meanEnergy(stormy.Samples), meanEnergy(clean.Samples))
	}
}

func TestCalibrationDriftCountsAndPerturbs(t *testing.T) {
	is := frustrated(10, 17)
	fa, _ := Forward(1, 0.41, 1)
	clean, err := Run(is, Params{Schedule: fa, NumReads: 20, SweepsPerMicrosecond: 50}, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	drifty, err := Run(is, Params{Schedule: fa, NumReads: 20, SweepsPerMicrosecond: 50,
		Faults: FaultModel{CalibrationDriftRate: 1, DriftSigma: 0.5}}, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if drifty.Faults.CalibrationDrifts != 20 {
		t.Fatalf("drift count %d, want 20", drifty.Faults.CalibrationDrifts)
	}
	same := true
	for i := range clean.Samples {
		if !spinsEqual(clean.Samples[i].Spins, drifty.Samples[i].Spins) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("heavy calibration drift changed no read")
	}
	// Reported energies stay in the caller's problem scale.
	for _, s := range drifty.Samples {
		if is.Energy(s.Spins) != s.Energy {
			t.Fatal("drifted sample energy not re-evaluated on the true problem")
		}
	}
}

// TestNearZeroFaultModelIsNoop: an enabled-but-never-firing fault model
// must reproduce the clean run bit-for-bit, because fault decisions come
// from dedicated RNG splits that never advance the dynamics streams.
func TestNearZeroFaultModelIsNoop(t *testing.T) {
	is := frustrated(10, 23)
	fa, _ := Forward(1, 0.41, 1)
	clean, err := Run(is, Params{Schedule: fa, NumReads: 15, SweepsPerMicrosecond: 50,
		ICE: ICE{SigmaH: 0.02, SigmaJ: 0.02}}, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Run(is, Params{Schedule: fa, NumReads: 15, SweepsPerMicrosecond: 50,
		ICE:    ICE{SigmaH: 0.02, SigmaJ: 0.02},
		Faults: FaultModel{ProgrammingFailureRate: 1e-15, ReadTimeoutRate: 1e-15, ChainBreakStormRate: 1e-15, CalibrationDriftRate: 1e-15}}, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Samples {
		if clean.Samples[i].Energy != guarded.Samples[i].Energy ||
			!spinsEqual(clean.Samples[i].Spins, guarded.Samples[i].Spins) {
			t.Fatalf("fault bookkeeping perturbed read %d", i)
		}
	}
}

// TestParallelismDeterministicWithFaults is the determinism regression of
// this PR: Parallelism ∈ {1, 4, GOMAXPROCS} yields bit-identical
// Result.Samples for the same seed, for both SVMC and PIMC, with the
// fault model both off and injecting every fault class.
func TestParallelismDeterministicWithFaults(t *testing.T) {
	is := frustrated(10, 31)
	fa, _ := Forward(1, 0.41, 1)
	models := []FaultModel{
		{},
		{ReadTimeoutRate: 0.2, ChainBreakStormRate: 0.3, CalibrationDriftRate: 0.3, DriftSigma: 0.2},
	}
	engines := []Engine{SVMC{}, PIMC{Slices: 8}}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, fm := range models {
		for _, eng := range engines {
			var base *Result
			for _, par := range levels {
				got, err := Run(is, Params{Schedule: fa, NumReads: 24, Engine: eng,
					SweepsPerMicrosecond: 30, Faults: fm, Parallelism: par}, rng.New(37))
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = got
					continue
				}
				if len(got.Samples) != len(base.Samples) || got.Faults != base.Faults {
					t.Fatalf("%s faults=%v: parallelism %d changed sample/fault counts", eng.Name(), fm.Enabled(), par)
				}
				for i := range base.Samples {
					if base.Samples[i].Energy != got.Samples[i].Energy ||
						!spinsEqual(base.Samples[i].Spins, got.Samples[i].Spins) {
						t.Fatalf("%s faults=%v: parallelism %d diverged at read %d", eng.Name(), fm.Enabled(), par, i)
					}
				}
			}
		}
	}
}

// TestQPUFaultPath: the embedded sampler honours timeouts and storms and
// keeps its chain accounting on surviving reads.
func TestQPUFaultPath(t *testing.T) {
	is := frustrated(8, 41)
	fa, _ := Forward(1, 0.41, 1)
	qpu := chainQPU()
	res, err := qpu.Run(is, Params{Schedule: fa, NumReads: 20, SweepsPerMicrosecond: 50,
		Faults: FaultModel{ReadTimeoutRate: 0.3, ChainBreakStormRate: 0.3}}, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.ReadTimeouts == 0 {
		t.Fatal("no timeouts at 30% over 20 reads")
	}
	if len(res.Samples)+res.Faults.ReadTimeouts != 20 {
		t.Fatal("sample accounting incomplete")
	}
	if res.BrokenChainRate < 0 || res.BrokenChainRate > 1 {
		t.Fatalf("broken chain rate %v", res.BrokenChainRate)
	}
	for _, s := range res.Samples {
		if len(s.Spins) != is.N {
			t.Fatal("unembedded sample has wrong width")
		}
	}
}

func TestFaultStatsTotalAndKindNames(t *testing.T) {
	s := FaultStats{ReadTimeouts: 1, ChainBreakStorms: 2, CalibrationDrifts: 3}
	if s.Total() != 6 {
		t.Fatalf("total %d", s.Total())
	}
	if FaultProgramming.String() != "programming-failure" || FaultAllReadsLost.String() != "all-reads-lost" {
		t.Fatal("fault kind names wrong")
	}
	if (&FaultError{Kind: FaultProgramming}).Error() == "" {
		t.Fatal("empty fault error string")
	}
	if _, ok := AsFault(errors.New("unrelated")); ok {
		t.Fatal("AsFault matched a non-fault error")
	}
}

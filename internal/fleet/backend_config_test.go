package fleet

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestParseBackends pins the CLI pool-spec surface used by the hybrid
// serving commands.
func TestParseBackends(t *testing.T) {
	devs, err := ParseBackends("qpu, qpu ,pt,sa,qaoa")
	if err != nil {
		t.Fatal(err)
	}
	want := []BackendKind{
		BackendQPUSim, BackendQPUSim,
		BackendParallelTempering, BackendSimulatedAnnealing, BackendQAOA,
	}
	if len(devs) != len(want) {
		t.Fatalf("%d devices for 5-entry spec", len(devs))
	}
	for i, k := range want {
		if devs[i].Backend != k {
			t.Fatalf("device %d backend %v, want %v", i, devs[i].Backend, k)
		}
	}
	// QPU entries must carry the DefaultDevices hardware spread, not
	// zero-valued devices.
	ref := DefaultDevices(2)
	for i := 0; i < 2; i++ {
		if devs[i].SweepsPerMicrosecond != ref[i].SweepsPerMicrosecond {
			t.Fatalf("QPU entry %d missing DefaultDevices spread", i)
		}
	}
	if _, err := ParseBackends("qpu,warp-drive"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := ParseBackends(""); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestParseSpellings covers the parse/print round trips for backend
// kinds and route policies, including the unknown-value fallbacks.
func TestParseSpellings(t *testing.T) {
	for spell, want := range map[string]BackendKind{
		"qpu": BackendQPUSim, "qpu-sim": BackendQPUSim,
		"pt": BackendParallelTempering, "parallel-tempering": BackendParallelTempering,
		"sa": BackendSimulatedAnnealing, "simulated-annealing": BackendSimulatedAnnealing,
		"qaoa": BackendQAOA,
	} {
		got, err := ParseBackendKind(spell)
		if err != nil || got != want {
			t.Fatalf("ParseBackendKind(%q) = %v, %v", spell, got, err)
		}
	}
	if !strings.HasPrefix(BackendKind(99).String(), "BackendKind(") {
		t.Fatal("unknown backend kind String fallback missing")
	}

	for spell, want := range map[string]RoutePolicy{"": RouteAny, "any": RouteAny, "hybrid": RouteHybrid} {
		got, err := ParseRoutePolicy(spell)
		if err != nil || got != want {
			t.Fatalf("ParseRoutePolicy(%q) = %v, %v", spell, got, err)
		}
	}
	if _, err := ParseRoutePolicy("quantum-only"); err == nil {
		t.Fatal("unknown route policy accepted")
	}
	if RouteHybrid.String() != "hybrid" || RouteAny.String() != "any" {
		t.Fatal("route policy names wrong")
	}
	if !strings.HasPrefix(RoutePolicy(7).String(), "RoutePolicy(") {
		t.Fatal("unknown route policy String fallback missing")
	}
	if ClassQuantum.String() != "quantum" || ClassClassical.String() != "classical" || ClassAny.String() != "any" {
		t.Fatal("backend class names wrong")
	}
	if !strings.HasPrefix(BackendClass(9).String(), "BackendClass(") {
		t.Fatal("unknown backend class String fallback missing")
	}
}

// TestPoolDeadAt pins the static pool-death figure the C-RAN shard
// router plans failover from.
func TestPoolDeadAt(t *testing.T) {
	if got := PoolDeadAt(nil); got != 0 {
		t.Fatalf("empty pool dead at %g, want 0", got)
	}
	if got := PoolDeadAt([]Device{{FailAt: 5}, {}}); !math.IsInf(got, 1) {
		t.Fatalf("pool with an immortal device dead at %g, want +Inf", got)
	}
	if got := PoolDeadAt([]Device{{FailAt: 5}, {FailAt: 9}, {FailAt: 2}}); got != 9 {
		t.Fatalf("pool dead at %g, want 9 (latest FailAt)", got)
	}
}

// TestHybridConfigValidation covers the heterogeneous knobs' rejection
// paths in Config.withDefaults.
func TestHybridConfigValidation(t *testing.T) {
	reqs := uniformRequests(t, 1, 1, 100, 0)
	base := func() Config {
		return Config{Devices: HybridDevices(1, 1, 0), Route: RouteHybrid, NumReads: 2, Seed: 1}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad-route", func(c *Config) { c.Route = RoutePolicy(9) }},
		{"bad-force-class", func(c *Config) { c.Router.ForceClass = BackendClass(5) }},
		{"bad-backend", func(c *Config) { c.Devices[1].Backend = BackendKind(42) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if _, err := Serve(context.Background(), cfg, reqs); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	if _, err := Serve(context.Background(), base(), reqs); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseBackends: the -backends pool spec is external input. Parsing
// must never panic; a rejected spec returns no devices, and an accepted
// one yields exactly one device per comma entry, of that entry's kind,
// forming a pool Serve accepts.
func FuzzParseBackends(f *testing.F) {
	for _, s := range []string{"qpu,qpu,pt,sa", "qpu", "qaoa, sa ,pt", "", ",", "qpu,,pt", "QPU", "qpu-sim,parallel-tempering,simulated-annealing"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		devs, err := ParseBackends(spec)
		if err != nil {
			if devs != nil {
				t.Fatalf("ParseBackends(%q) returned %d devices alongside error %v", spec, len(devs), err)
			}
			return
		}
		entries := strings.Split(spec, ",")
		if len(devs) != len(entries) {
			t.Fatalf("ParseBackends(%q): %d devices for %d entries", spec, len(devs), len(entries))
		}
		for i, e := range entries {
			want, err := ParseBackendKind(strings.TrimSpace(e))
			if err != nil {
				t.Fatalf("ParseBackends(%q) accepted entry %q that ParseBackendKind rejects: %v", spec, e, err)
			}
			if devs[i].Backend != want {
				t.Fatalf("ParseBackends(%q): device %d is %v, entry says %v", spec, i, devs[i].Backend, want)
			}
			if (want == BackendQPUSim) != (devs[i].QPU != nil) {
				t.Fatalf("ParseBackends(%q): device %d (%v) has QPU model %v", spec, i, want, devs[i].QPU)
			}
		}
		if _, err := (Config{Devices: devs}).withDefaults(); err != nil {
			t.Fatalf("ParseBackends(%q) built a pool Serve rejects: %v", spec, err)
		}
	})
}

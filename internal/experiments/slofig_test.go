package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cran"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// TestCRANSLOMonitoring gates the observability figure: serving the 2×
// overload point with the monitor attached must yield per-shard SLIs, a
// non-empty burn-rate alert timeline (an overloaded tier sheds, and shed
// frames burn the availability and shed budgets), scored devices, and
// queue-dominated critical paths.
func TestCRANSLOMonitoring(t *testing.T) {
	res, err := RunCRANSLO(Quick(), 2, 24, cran.PlacementHash)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot
	if len(snap.Shards) < 2 {
		t.Fatalf("per-shard SLIs missing: %+v", snap.Shards)
	}
	if snap.Tier.Served == 0 || snap.Tier.Shed == 0 {
		t.Fatalf("2x overload point did not stress the tier: %+v", snap.Tier)
	}
	fired := false
	for _, tr := range snap.Alerts {
		if tr.To == slo.StateFiring {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("no SLO fired under 2x overload: %+v", snap.Alerts)
	}
	if len(snap.Devices) != res.Shards*cranDevicesPerShard {
		t.Fatalf("scored %d devices, want %d", len(snap.Devices), res.Shards*cranDevicesPerShard)
	}
	if len(snap.Frames) != snap.Tier.Served {
		t.Fatalf("%d critical paths for %d served frames", len(snap.Frames), snap.Tier.Served)
	}

	var buf bytes.Buffer
	res.WriteTable(&buf)
	for _, want := range []string{"service levels", "alerts", "critical path", "device health"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("dashboard missing %q:\n%s", want, buf.String())
		}
	}
}

// TestCRANSLOForwardsTrace: the figure's records reach the caller's
// tracer, and the monitor, which taps a tracer of its own, renders the
// same dashboard with or without one.
func TestCRANSLOForwardsTrace(t *testing.T) {
	var plain bytes.Buffer
	res, err := RunCRANSLO(Quick(), 2, 24, cran.PlacementHash)
	if err != nil {
		t.Fatal(err)
	}
	res.WriteTable(&plain)

	cfg := Quick()
	cfg.Trace = telemetry.NewTracer()
	res, err = RunCRANSLO(cfg, 2, 24, cran.PlacementHash)
	if err != nil {
		t.Fatal(err)
	}
	var traced bytes.Buffer
	res.WriteTable(&traced)
	if traced.String() != plain.String() {
		t.Fatal("a caller tracer changed the dashboard")
	}
	fleetRecs := 0
	for _, r := range cfg.Trace.Records() {
		if strings.HasPrefix(r.Name, "fleet/") {
			fleetRecs++
		}
	}
	if fleetRecs == 0 {
		t.Fatalf("caller trace holds no fleet/* records (%d records)", cfg.Trace.Len())
	}
}

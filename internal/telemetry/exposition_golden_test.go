package telemetry

import (
	"strings"
	"testing"
)

// Golden exposition test over the cran shard-label shape: several
// families whose labelled series interleave alphabetically (shard, then
// reason/source/device labels) must each get exactly one # TYPE header,
// with every series of a family grouped under it.
func TestWritePrometheusGoldenCRANShardLabels(t *testing.T) {
	r := NewRegistry()

	// Registration order deliberately interleaves families and label sets;
	// the exposition must still group by family.
	r.Counter("fleet_shed_total", Label{Key: "reason", Value: "deadline-expired"}, Label{Key: "shard", Value: "1"}).Add(3)
	r.Counter("cran_admitted_total", Label{Key: "shard", Value: "0"}).Add(40)
	r.Gauge("fleet_device_utilization", Label{Key: "device", Value: "0"}, Label{Key: "shard", Value: "1"}).Set(0.25)
	r.Counter("fleet_shed_total", Label{Key: "reason", Value: "stream-queue-full"}, Label{Key: "shard", Value: "0"}).Add(2)
	r.Counter("cran_admitted_total", Label{Key: "shard", Value: "1"}).Add(38)
	r.Gauge("fleet_device_utilization", Label{Key: "device", Value: "1"}, Label{Key: "shard", Value: "0"}).Set(0.5)
	r.Histogram("fleet_queue_depth", 0, 4, 2, Label{Key: "shard", Value: "0"}).Observe(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE cran_admitted_total counter
cran_admitted_total{shard="0"} 40
cran_admitted_total{shard="1"} 38
# TYPE fleet_device_utilization gauge
fleet_device_utilization{device="0",shard="1"} 0.25
fleet_device_utilization{device="1",shard="0"} 0.5
# TYPE fleet_queue_depth histogram
fleet_queue_depth_bucket{shard="0",le="2"} 1
fleet_queue_depth_bucket{shard="0",le="4"} 1
fleet_queue_depth_bucket{shard="0",le="+Inf"} 1
fleet_queue_depth_sum{shard="0"} 1
fleet_queue_depth_count{shard="0"} 1
# TYPE fleet_shed_total counter
fleet_shed_total{reason="deadline-expired",shard="1"} 3
fleet_shed_total{reason="stream-queue-full",shard="0"} 2
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// One family registered as two kinds — even under different label sets —
// is a programming error the registry must surface immediately, because
// the exposition emits a single # TYPE per family.
func TestRegistryFamilyKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-label kind conflict did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("mixed_family", Label{Key: "a", Value: "1"})
	r.Gauge("mixed_family", Label{Key: "b", Value: "2"})
}

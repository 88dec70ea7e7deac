package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func registryForTest() *Metrics {
	m := New()
	m.Counter("bms_ingest_reports_total", "reports accepted").Add(42)
	m.Gauge("bms_lease_epoch", "granted leadership epoch").Add(3)
	m.Counter("fleet_routed_total", "reports routed", L("shard", "s0")).Add(7)
	m.Counter("fleet_routed_total", "reports routed", L("shard", "s1")).Add(9)
	h := m.Timing("bms_ingest_seconds", "batch ingest latency")
	h.Observe(1500)
	h.Observe(3000)
	m.Sizes("bms_ingest_batch_size", "reports per batch").Observe(64)
	m.Timing("fleet_read_seconds", "federated read round", L("view", "occupancy")).Observe(900)
	m.Timing("fleet_read_seconds", "federated read round", L("view", "rollup")).Observe(1200)
	m.Counter("fleet_read_errors_total", "federated reads the shard failed", L("shard", "s1")).Inc()
	m.GaugeFunc("bms_gate_inflight", "admissions in flight", func() float64 { return 2 })
	m.Recorder().Record(EventLeaseClaim, map[string]any{"epoch": 3})
	return m
}

// TestExpositionRoundTrip: the hand-rolled writer must satisfy the
// hand-rolled validator — the pair is what CI runs against a live bmsd.
func TestExpositionRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := registryForTest().WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("our own exposition fails our validator: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE bms_ingest_reports_total counter",
		"bms_ingest_reports_total 42",
		`fleet_routed_total{shard="s0"} 7`,
		`fleet_routed_total{shard="s1"} 9`,
		"# TYPE bms_ingest_seconds histogram",
		`bms_ingest_seconds_bucket{le="+Inf"} 2`,
		"bms_ingest_seconds_count 2",
		"bms_gate_inflight 2",
		`fleet_read_seconds_bucket{view="rollup",le="+Inf"} 1`,
		`fleet_read_seconds_count{view="occupancy"} 1`,
		`fleet_read_errors_total{shard="s1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative: the +Inf bucket equals the
	// count, and each TYPE appears exactly once.
	if strings.Count(out, "# TYPE fleet_routed_total counter") != 1 || strings.Count(out, "# TYPE fleet_read_seconds histogram") != 1 {
		t.Fatal("label variants must share one TYPE header")
	}
}

func TestExpositionHandlerAndTelemetry(t *testing.T) {
	m := registryForTest()
	rr := httptest.NewRecorder()
	m.ExpositionHandler()(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("metrics status %d", rr.Code)
	}
	if err := ValidateExposition(rr.Body.Bytes()); err != nil {
		t.Fatal(err)
	}

	rr = httptest.NewRecorder()
	m.TelemetryHandler()(rr, httptest.NewRequest("GET", "/api/v1/telemetry", nil))
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["bms_ingest_reports_total"] != 42 {
		t.Fatalf("telemetry counters = %v", snap.Counters)
	}
	if snap.Counters[`fleet_routed_total{shard="s1"}`] != 9 {
		t.Fatalf("labelled counter missing: %v", snap.Counters)
	}
	hj, ok := snap.Histograms["bms_ingest_seconds"]
	if !ok || hj.Count != 2 || hj.P99 < 3000 {
		t.Fatalf("telemetry histogram = %+v", hj)
	}
	if len(snap.Events) != 1 || snap.Events[0].Kind != EventLeaseClaim {
		t.Fatalf("telemetry events = %+v", snap.Events)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []struct {
		name, payload string
	}{
		{"garbage line", "!!!not a metric\n"},
		{"bad value", "x_total twelve\n"},
		{"bad name", "# TYPE 9lives counter\n"},
		{"unknown type", "# TYPE x histo\n"},
		{"typeless TYPE", "# TYPE x\n"},
		{"duplicate TYPE", "# TYPE x counter\n# TYPE x counter\n"},
		{"bad label pair", `x{shard=s0} 1` + "\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 3\n"},
	}
	for _, tc := range bad {
		if err := ValidateExposition([]byte(tc.payload)); err == nil {
			t.Errorf("%s: validator accepted %q", tc.name, tc.payload)
		}
	}
	good := "# HELP x_total things\n# TYPE x_total counter\nx_total 1\n" +
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n" +
		"free_metric 3.5\nnan_metric NaN\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("validator rejected valid exposition: %v", err)
	}
}

// The measured crowds live beside the harness in internal/scenario (it
// imports this package for the streams and the model); their pins stay
// here, under the names the suite has always printed.
package experiments_test

import (
	"fmt"
	"reflect"
	"testing"

	"occusim/internal/building"
	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// TestCrowdIngest checks the crowd workload end to end: every device is
// tracked, transitions commit, and the final placements overwhelmingly
// match the synthetic schedules (the streams are low-noise).
func TestCrowdIngest(t *testing.T) {
	res, err := scenario.CrowdIngest(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.DevicesTracked != 12 {
		t.Fatalf("tracked %d of 12 devices", res.DevicesTracked)
	}
	if res.Acked != 12*150 {
		t.Fatalf("reports = %d", res.Acked)
	}
	if res.EventsCommitted == 0 {
		t.Fatal("no occupancy events committed")
	}
	if res.PlacementAccuracy < 0.7 {
		t.Fatalf("placement accuracy %.2f below 0.7", res.PlacementAccuracy)
	}
	if res.PerSecond() <= 0 {
		t.Fatalf("throughput = %v", res.PerSecond())
	}
}

// TestCrowdFleet checks the fleet workload end to end: the ring routes
// every report, each device's whole stream lands on one shard, and the
// federated occupancy outcome matches the schedules.
func TestCrowdFleet(t *testing.T) {
	res, err := scenario.CrowdFleet(16, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.DevicesTracked != 16 {
		t.Fatalf("tracked %d of 16 devices", res.DevicesTracked)
	}
	if res.Reports != 16*150 {
		t.Fatalf("reports = %d", res.Reports)
	}
	sum := 0
	for _, shard := range res.PerShard {
		sum += shard.Acked
	}
	if sum != res.Reports {
		t.Fatalf("per-shard reports sum to %d, want %d", sum, res.Reports)
	}
	if res.EventsCommitted == 0 {
		t.Fatal("no occupancy events committed")
	}
	if res.PlacementAccuracy < 0.7 {
		t.Fatalf("placement accuracy %.2f below 0.7", res.PlacementAccuracy)
	}
	if res.FleetElapsed <= 0 || res.FleetElapsed > res.TotalElapsed {
		t.Fatalf("critical path %v not within (0, %v]", res.FleetElapsed, res.TotalElapsed)
	}
}

// TestCrowdFleetOutcomeIndependentOfShardCount pins the federation
// contract at workload level: the committed occupancy state is a pure
// function of the streams, so neither resharding nor the transport nor
// a crash may change it. The clean crowd over every fleet shape the
// harness builds ends byte-identical to one reference.
func TestCrowdFleetOutcomeIndependentOfShardCount(t *testing.T) {
	b := building.PaperHouse()
	cfg := scenario.Config{Devices: 12, Reports: 48, Seed: 21}
	clean, err := scenario.Clean().Generate(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := scenario.Reference(b, clean.Honest, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		for _, shape := range []string{"local", "http-json", "http-binary", "durable-crashed"} {
			t.Run(fmt.Sprintf("%s/%d", shape, shards), func(t *testing.T) {
				t.Parallel()
				tr, err := scenario.Clean().Generate(b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				spec := scenario.Spec{Shards: shards}
				switch shape {
				case "http-json":
					spec.Loopback = true
				case "http-binary":
					spec.Loopback, spec.Metrics = true, obs.New()
				case "durable-crashed":
					spec.Dir, spec.Policy = t.TempDir(), store.FsyncBatch
				}
				f, err := scenario.Build(b, spec, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				sinks := f.Sinks()
				switch shape {
				case "http-json":
					sinks = []scenario.Sink{scenario.DeviceUplink(f.URL, transport.CodecJSON)}
				case "http-binary":
					sinks = []scenario.Sink{scenario.DeviceUplink(f.URL, transport.CodecBinary)}
				}
				if _, err := (scenario.Driver{}).Drive(tr.Lanes, sinks...); err != nil {
					t.Fatal(err)
				}
				if shape == "durable-crashed" {
					// No Close: the crash. A second fleet over the same
					// directories recovers from the log alone.
					if f, err = scenario.Build(b, spec, cfg.Seed); err != nil {
						t.Fatal(err)
					}
				}
				defer f.Close()
				if err := scenario.VerifyExact(f.Gateways[0], ref); err != nil {
					t.Fatal(err)
				}
				if shape == "http-binary" {
					counters := spec.Metrics.TakeSnapshot().Counters
					if counters["fleet_presplit_forwarded_total"] == 0 || counters["fleet_presplit_digest_miss_total"] != 0 {
						t.Fatalf("pre-split forwarded %v uploads with %v digest misses, want > 0 and 0",
							counters["fleet_presplit_forwarded_total"], counters["fleet_presplit_digest_miss_total"])
					}
				}
			})
		}
	}
}

// TestCrowdIngestDeterministicOutcome pins that the occupancy outcome is
// independent of goroutine scheduling: two runs with the same seed must
// agree on every tracked placement and accuracy, even though ingest
// interleaves differently.
func TestCrowdIngestDeterministicOutcome(t *testing.T) {
	a, err := scenario.CrowdIngest(10, 21)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.CrowdIngest(10, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Everything but the driver's timings.
	a.Driven, b.Driven = &scenario.Driven{Acked: a.Acked}, &scenario.Driven{Acked: b.Acked}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("outcome depends on scheduling:\n  %+v\n  %+v", a, b)
	}
}

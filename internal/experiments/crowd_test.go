// The clean crowd end to end, under the names the suite has always
// printed; the harness lives in internal/scenario (it imports this
// package for the streams and the model).
package experiments_test

import (
	"slices"
	"testing"

	"occusim/internal/building"
	"occusim/internal/scenario"
)

// TestCrowdIngest runs the clean crowd through one shard end to end:
// every report is acknowledged, every device is tracked, transitions
// commit, and the final placements overwhelmingly match the synthetic
// schedules (the streams are low-noise).
func TestCrowdIngest(t *testing.T) {
	assertLandsWhole(t, scenario.Config{Devices: 12, Reports: 150, Shards: 1, Seed: 7})
}

// TestCrowdFleet runs the clean crowd through a 4-shard fleet: the
// federated run lands whole as on one shard, and, driven again over a
// fresh fleet, each device's whole stream lands on the one shard the
// ring names for it and on no other.
func TestCrowdFleet(t *testing.T) {
	cfg := scenario.Config{Devices: 16, Reports: 150, Shards: 4, Seed: 7}
	assertLandsWhole(t, cfg)

	b := building.PaperHouse()
	tr, err := scenario.Clean().Generate(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scenario.Build(b, scenario.Spec{Shards: cfg.Shards}, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := (scenario.Driver{}).Drive(tr.Lanes, f.Sinks()...); err != nil {
		t.Fatal(err)
	}
	for _, stream := range tr.Honest {
		device := stream[0].Device
		owner, err := f.Gateways[0].ShardFor(device)
		if err != nil {
			t.Fatal(err)
		}
		for s, srv := range f.Pool.Servers {
			if known := slices.Contains(srv.KnownDevices(), device); known != (s == owner) {
				t.Fatalf("device %s known to shard %d = %v, but the ring names shard %d", device, s, known, owner)
			}
		}
	}
}

// assertLandsWhole runs the clean crowd under cfg and checks that every
// report is acknowledged, every device tracked, events committed and
// placement at least 0.7.
func assertLandsWhole(t *testing.T, cfg scenario.Config) {
	t.Helper()
	res, err := scenario.Run(scenario.Clean(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Devices * cfg.Reports; res.Unique != want || res.Acked != want {
		t.Fatalf("offered %d and acknowledged %d reports, want %d of each", res.Unique, res.Acked, want)
	}
	if res.DevicesTracked != cfg.Devices {
		t.Fatalf("tracked %d of %d devices", res.DevicesTracked, cfg.Devices)
	}
	if res.EventsCommitted == 0 {
		t.Fatal("no occupancy events committed")
	}
	if res.PlacementAccuracy < 0.7 {
		t.Fatalf("placement accuracy %.2f below 0.7", res.PlacementAccuracy)
	}
}

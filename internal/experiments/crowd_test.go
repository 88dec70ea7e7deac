// The clean crowd end to end, under the names the suite has always
// printed; the harness lives in internal/scenario (it imports this
// package for the streams and the model).
package experiments_test

import (
	"reflect"
	"slices"
	"testing"

	"occusim/internal/building"
	"occusim/internal/experiments"
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

// TestPhoneCrowdStreams holds the phone crowd to what a driver and an
// oracle rely on: a seed reproduces it and another seed changes it, each
// stream is one device's with strictly increasing report times, and every
// beacon reported is one of the plan's — though not every one in every
// report, since a phone reports only what it ranged.
func TestPhoneCrowdStreams(t *testing.T) {
	b := building.PaperHouse()
	const phones, cycles = 6, 30
	streams, err := experiments.PhoneCrowdStreams(b, phones, cycles, 7)
	if err != nil {
		t.Fatal(err)
	}
	again, err := experiments.PhoneCrowdStreams(b, phones, cycles, 7)
	if err != nil {
		t.Fatal(err)
	}
	other, err := experiments.PhoneCrowdStreams(b, phones, cycles, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streams, again) {
		t.Error("the same seed gave different streams")
	}
	if reflect.DeepEqual(streams, other) {
		t.Error("seeds 7 and 8 gave identical streams")
	}
	if len(streams) != phones {
		t.Fatalf("%d streams, want one per phone (%d)", len(streams), phones)
	}
	plan := map[string]bool{}
	for _, bc := range b.Beacons {
		plan[bc.ID.String()] = true
	}
	seen, partial := map[string]bool{}, false
	for d, s := range streams {
		if len(s) == 0 {
			t.Errorf("stream %d is empty", d)
			continue
		}
		for i, rep := range s {
			if rep.Device != s[0].Device {
				t.Errorf("stream %d names devices %q and %q", d, s[0].Device, rep.Device)
			}
			if i > 0 && rep.AtSeconds <= s[i-1].AtSeconds {
				t.Errorf("stream %d: report %d at %vs does not follow %vs", d, i, rep.AtSeconds, s[i-1].AtSeconds)
			}
			for _, br := range rep.Beacons {
				if !plan[br.ID] {
					t.Errorf("stream %d reports beacon %s, which is not the plan's", d, br.ID)
				}
			}
			partial = partial || len(rep.Beacons) < len(b.Beacons)
		}
		if seen[s[0].Device] {
			t.Errorf("stream %d's device %q has another stream too", d, s[0].Device)
		}
		seen[s[0].Device] = true
	}
	if !partial {
		t.Error("every report names every beacon of the plan — the phones' ranging is not in the streams")
	}
}

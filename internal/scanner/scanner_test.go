package scanner

import (
	"testing"
	"time"

	"occusim/internal/ble"
	"occusim/internal/building"
	"occusim/internal/device"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/rng"
	"occusim/internal/sim"
)

// newWorld builds a world with one beacon at the origin broadcasting
// every 28 ms (≈30/s including jitter, the paper's rate).
func newWorld(t *testing.T, seed uint64) *ble.World {
	t.Helper()
	ch, err := radio.NewChannel(radio.DefaultIndoor(), nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	w := ble.NewWorld(sim.NewEngine(), ch, seed)
	return w
}

func addBeacon(t *testing.T, w *ble.World, minor uint16, pos geom.Point) {
	t.Helper()
	pkt := ibeacon.Packet{
		UUID:          building.DeploymentUUID,
		Major:         1,
		Minor:         minor,
		MeasuredPower: -59,
	}
	err := w.AddAdvertiser(&ble.Advertiser{
		Name:         pkt.ID().String(),
		Payload:      pkt.Marshal(),
		LinkID:       pkt.ID().Hash64(),
		PowerAt1mDBm: -59,
		Interval:     28 * time.Millisecond,
		Pos:          pos,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	w := newWorld(t, 1)
	good := Config{Period: 2 * time.Second, Profile: device.GalaxyS3Mini()}
	if _, err := Attach(w, "p", mobility.Static{}, good, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Period: 0, Profile: device.GalaxyS3Mini()},
		{Period: time.Second}, // zero profile
	}
	for i, c := range bad {
		if _, err := Attach(w, "p", mobility.Static{}, c, rng.New(1)); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if _, err := Attach(w, "p", nil, good, rng.New(1)); err == nil {
		t.Error("nil mobility should fail")
	}
	if _, err := Attach(w, "p", mobility.Static{}, good, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestAndroidDeliversOneSamplePerBeaconPerCycle(t *testing.T) {
	w := newWorld(t, 2)
	addBeacon(t, w, 1, geom.Pt(0, 0))
	addBeacon(t, w, 2, geom.Pt(3, 0))
	var cycles []Cycle
	prof := device.GalaxyS3Mini()
	prof.ScanLossProb = 0 // isolate the aggregation semantics
	_, err := Attach(w, "phone", mobility.Static{P: geom.Pt(2, 0)}, Config{
		Period:  2 * time.Second,
		Profile: prof,
		OnCycle: func(c Cycle) { cycles = append(cycles, c) },
	}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(20 * time.Second)
	if len(cycles) != 10 {
		t.Fatalf("cycles = %d, want 10", len(cycles))
	}
	for i, c := range cycles {
		if len(c.Samples) > 2 {
			t.Fatalf("cycle %d has %d samples for 2 beacons", i, len(c.Samples))
		}
		seen := map[ibeacon.BeaconID]bool{}
		for _, s := range c.Samples {
			if seen[s.Beacon] {
				t.Fatalf("cycle %d delivered beacon %v twice", i, s.Beacon)
			}
			seen[s.Beacon] = true
			if s.MeasuredPower != -59 {
				t.Fatalf("measured power = %d", s.MeasuredPower)
			}
		}
	}
}

func TestSampleCountAsymmetryAndroidVsIOS(t *testing.T) {
	// Section V example: 10 s at 2 s scan period, ~30 adv/s. Android
	// delivers ~5 aggregated samples; iOS sees hundreds of raw packets.
	run := func(prof device.Profile) (Stats, int) {
		w := newWorld(t, 3)
		addBeacon(t, w, 1, geom.Pt(0, 0))
		prof.ScanLossProb = 0
		delivered := 0
		s, err := Attach(w, "phone", mobility.Static{P: geom.Pt(2, 0)}, Config{
			Period:  2 * time.Second,
			Profile: prof,
			OnCycle: func(c Cycle) { delivered += len(c.Samples) },
		}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		w.Run(10 * time.Second)
		return s.Stats(), delivered
	}
	android, delivered := run(device.GalaxyS3Mini())
	ios, _ := run(device.IPhone5S())
	if delivered != 5 {
		t.Fatalf("Android delivered %d samples in 10 s, want 5", delivered)
	}
	if ios.RawReceptions < 200 {
		t.Fatalf("iOS raw receptions = %d, want ≈300", ios.RawReceptions)
	}
	if ios.RawReceptions < 5*android.RawReceptions {
		t.Fatalf("iOS (%d) should dwarf Android (%d) raw receptions",
			ios.RawReceptions, android.RawReceptions)
	}
}

func TestStackBugDropsCycles(t *testing.T) {
	w := newWorld(t, 4)
	addBeacon(t, w, 1, geom.Pt(0, 0))
	prof := device.GalaxyS3Mini()
	prof.ScanLossProb = 0.5
	dropped := 0
	_, err := Attach(w, "phone", mobility.Static{P: geom.Pt(1, 0)}, Config{
		Period:  time.Second,
		Profile: prof,
		OnCycle: func(c Cycle) {
			if c.Dropped {
				dropped++
				if c.Samples != nil {
					t.Fatal("dropped cycle has samples")
				}
			}
		},
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(200 * time.Second)
	if dropped < 60 || dropped > 140 {
		t.Fatalf("dropped = %d of 200, want ≈100", dropped)
	}
}

func TestIOSNeverDropsCycles(t *testing.T) {
	w := newWorld(t, 5)
	addBeacon(t, w, 1, geom.Pt(0, 0))
	prof := device.IPhone5S()
	prof.ScanLossProb = 0.9 // must be ignored on iOS
	droppedSeen := false
	_, err := Attach(w, "phone", mobility.Static{P: geom.Pt(1, 0)}, Config{
		Period:  time.Second,
		Profile: prof,
		OnCycle: func(c Cycle) { droppedSeen = droppedSeen || c.Dropped },
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(30 * time.Second)
	if droppedSeen {
		t.Fatal("iOS cycle dropped by Android-only stack bug")
	}
}

func TestRegionFiltering(t *testing.T) {
	w := newWorld(t, 6)
	addBeacon(t, w, 1, geom.Pt(0, 0))
	// A beacon from a different deployment.
	alien := ibeacon.Packet{
		UUID:          ibeacon.MustUUID("DEADBEEF-0000-4000-8000-000000000009"),
		Major:         9,
		Minor:         9,
		MeasuredPower: -59,
	}
	if err := w.AddAdvertiser(&ble.Advertiser{
		Name:         "alien",
		Payload:      alien.Marshal(),
		LinkID:       alien.ID().Hash64(),
		PowerAt1mDBm: -59,
		Interval:     28 * time.Millisecond,
		Pos:          geom.Pt(1, 1),
	}); err != nil {
		t.Fatal(err)
	}
	var beacons []ibeacon.BeaconID
	prof := device.GalaxyS3Mini()
	prof.ScanLossProb = 0
	_, err := Attach(w, "phone", mobility.Static{P: geom.Pt(1, 0)}, Config{
		Period:  time.Second,
		Profile: prof,
		Region:  ibeacon.NewRegion(building.DeploymentUUID),
		OnCycle: func(c Cycle) {
			for _, s := range c.Samples {
				beacons = append(beacons, s.Beacon)
			}
		},
	}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(10 * time.Second)
	if len(beacons) == 0 {
		t.Fatal("no samples at all")
	}
	for _, id := range beacons {
		if id.UUID != building.DeploymentUUID {
			t.Fatalf("alien beacon %v leaked through region filter", id)
		}
	}
}

func TestNonIBeaconPayloadIgnored(t *testing.T) {
	w := newWorld(t, 7)
	if err := w.AddAdvertiser(&ble.Advertiser{
		Name:         "junk",
		Payload:      []byte{0x01, 0x02, 0x03},
		LinkID:       1,
		PowerAt1mDBm: -59,
		Interval:     28 * time.Millisecond,
		Pos:          geom.Pt(0, 0),
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	prof := device.GalaxyS3Mini()
	prof.ScanLossProb = 0
	s, err := Attach(w, "phone", mobility.Static{P: geom.Pt(1, 0)}, Config{
		Period:  time.Second,
		Profile: prof,
		OnCycle: func(c Cycle) { got += len(c.Samples) },
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(5 * time.Second)
	if got != 0 || s.Stats().RawReceptions != 0 {
		t.Fatalf("junk payload produced %d samples, %d raw", got, s.Stats().RawReceptions)
	}
}

func TestCycleSamplesSorted(t *testing.T) {
	w := newWorld(t, 8)
	for minor := uint16(5); minor >= 1; minor-- {
		addBeacon(t, w, minor, geom.Pt(float64(minor), 0))
	}
	prof := device.GalaxyS3Mini()
	prof.ScanLossProb = 0
	var bad bool
	_, err := Attach(w, "phone", mobility.Static{P: geom.Pt(2, 1)}, Config{
		Period:  2 * time.Second,
		Profile: prof,
		OnCycle: func(c Cycle) {
			for i := 1; i < len(c.Samples); i++ {
				if c.Samples[i].Beacon.Minor <= c.Samples[i-1].Beacon.Minor {
					bad = true
				}
			}
		},
	}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(10 * time.Second)
	if bad {
		t.Fatal("cycle samples not sorted by beacon identity")
	}
}

func TestLongerPeriodAggregatesMoreRawSamples(t *testing.T) {
	meanRaw := func(period time.Duration) float64 {
		w := newWorld(t, 9)
		addBeacon(t, w, 1, geom.Pt(0, 0))
		prof := device.GalaxyS3Mini()
		prof.ScanLossProb = 0
		n := 0
		s, err := Attach(w, "phone", mobility.Static{P: geom.Pt(2, 0)}, Config{
			Period:  period,
			Profile: prof,
			OnCycle: func(c Cycle) { n += len(c.Samples) },
		}, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		w.Run(60 * time.Second)
		return float64(s.Stats().RawReceptions) / float64(n)
	}
	short := meanRaw(2 * time.Second)
	long := meanRaw(5 * time.Second)
	if long <= short*1.8 {
		t.Fatalf("5 s cycles should aggregate ≈2.5× the raw samples of 2 s cycles: %v vs %v", long, short)
	}
}

func TestRestartOverheadReducesRawCount(t *testing.T) {
	mean := func(overhead time.Duration) float64 {
		w := newWorld(t, 10)
		addBeacon(t, w, 1, geom.Pt(0, 0))
		prof := device.GalaxyS3Mini()
		prof.ScanLossProb = 0
		prof.ScanRestartOverhead = overhead
		total := 0
		s, err := Attach(w, "phone", mobility.Static{P: geom.Pt(1, 0)}, Config{
			Period:  time.Second,
			Profile: prof,
		}, rng.New(10))
		if err != nil {
			t.Fatal(err)
		}
		w.Run(60 * time.Second)
		total = s.Stats().RawReceptions
		return float64(total)
	}
	none := mean(0)
	half := mean(500 * time.Millisecond)
	if half >= none*0.7 {
		t.Fatalf("500 ms dead time should cut raw receptions ≈50%%: %v vs %v", half, none)
	}
}

// TestPayloadCacheBoundedUnderChurn pins the payload-memo bound: a
// workload streaming receptions from ever-fresh payload buffers (the
// adversarial case for a pointer-keyed cache) must not grow the memo
// past its cap, must evict FIFO (oldest first), and must keep decoding
// correctly throughout.
func TestPayloadCacheBoundedUnderChurn(t *testing.T) {
	w := newWorld(t, 9)
	s, err := Attach(w, "p", mobility.Static{P: geom.Pt(1, 0)}, Config{
		Period:  time.Second,
		Profile: device.IPhone5S(), // no dead time, every packet delivered
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	total := payloadCacheMaxEntries + 500
	for i := 0; i < total; i++ {
		pkt := ibeacon.Packet{
			UUID:          building.DeploymentUUID,
			Major:         1,
			Minor:         uint16(i % 7),
			MeasuredPower: -59,
		}
		// Marshal allocates a fresh buffer per reception: every payload
		// is a cache miss after warmup.
		s.onReception(ble.Reception{At: time.Duration(i) * time.Millisecond, Payload: pkt.Marshal(), RSSI: -60})
		if len(s.slots) > payloadCacheMaxEntries {
			t.Fatalf("cache grew to %d entries after %d receptions, cap %d",
				len(s.slots), i+1, payloadCacheMaxEntries)
		}
	}
	if len(s.slots) != payloadCacheMaxEntries {
		t.Fatalf("cache size after churn = %d, want exactly %d (incremental eviction)",
			len(s.slots), payloadCacheMaxEntries)
	}
	// Every reception must still have been decoded and accumulated.
	if s.totalRaw != total {
		t.Fatalf("decoded %d of %d churned receptions", s.totalRaw, total)
	}
	// FIFO: the oldest cached payloads are gone, the newest are present.
	for i, sl := range s.slots {
		if sl.key == nil {
			t.Fatalf("slot %d has nil key", i)
		}
	}
}

// TestPayloadCacheStableBuffersHit pins the steady-state behaviour the
// cache is for: beacons advertising one fixed buffer never evict, and
// repeat receptions bypass parsing entirely (slot count stays at the
// advertiser count).
func TestPayloadCacheStableBuffersHit(t *testing.T) {
	w := newWorld(t, 10)
	s, err := Attach(w, "p", mobility.Static{P: geom.Pt(1, 0)}, Config{
		Period:  time.Second,
		Profile: device.IPhone5S(),
	}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 5)
	for i := range payloads {
		pkt := ibeacon.Packet{UUID: building.DeploymentUUID, Major: 1, Minor: uint16(i), MeasuredPower: -59}
		payloads[i] = pkt.Marshal()
	}
	for i := 0; i < 2000; i++ {
		s.onReception(ble.Reception{At: time.Duration(i) * time.Millisecond, Payload: payloads[i%5], RSSI: -60})
	}
	if len(s.slots) != 5 {
		t.Fatalf("stable advertisers filled %d slots, want 5", len(s.slots))
	}
	if s.totalRaw != 2000 {
		t.Fatalf("decoded %d of 2000", s.totalRaw)
	}
}

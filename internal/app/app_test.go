package app

import (
	"errors"
	"strings"
	"testing"
	"time"

	"occusim/internal/ble"
	"occusim/internal/building"
	"occusim/internal/device"
	"occusim/internal/energy"
	"occusim/internal/filter"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/rng"
	"occusim/internal/sim"
	"occusim/internal/transport"
)

// testWorld builds a world over the single-room plan with its beacon
// advertising at ~30/s.
func testWorld(t *testing.T, seed uint64) *ble.World {
	t.Helper()
	b := building.SingleRoom()
	ch, err := radio.NewChannel(radio.DefaultIndoor(), b.Walls, seed)
	if err != nil {
		t.Fatal(err)
	}
	w := ble.NewWorld(sim.NewEngine(), ch, seed)
	for _, bc := range b.Beacons {
		pkt := bc.Packet()
		if err := w.AddAdvertiser(&ble.Advertiser{
			Name:         bc.ID.String(),
			Payload:      pkt.Marshal(),
			LinkID:       bc.ID.Hash64(),
			PowerAt1mDBm: bc.TxPowerDBm,
			Interval:     28 * time.Millisecond,
			Pos:          bc.Pos,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func collectorUplink(reports *[]transport.Report) transport.Uplink {
	return transport.SendFunc{
		Label: "collect",
		F: func(r transport.Report) error {
			*reports = append(*reports, r)
			return nil
		},
	}
}

func baseConfig(uplink transport.Uplink) Config {
	return Config{
		Profile:    device.GalaxyS3Mini(),
		Power:      energy.DefaultAppProfile(),
		ScanPeriod: 2 * time.Second,
		Region:     ibeacon.NewRegion(building.DeploymentUUID),
		Filter:     filter.PaperConfig(),
		Uplink:     uplink,
		UplinkKind: energy.WiFi,
	}
}

func TestConfigValidation(t *testing.T) {
	w := testWorld(t, 1)
	var reports []transport.Report
	good := baseConfig(collectorUplink(&reports))

	if _, err := Launch(w, "p", nil, good, rng.New(1)); err == nil {
		t.Error("nil mobility should fail")
	}
	if _, err := Launch(w, "p", mobility.Static{}, good, nil); err == nil {
		t.Error("nil rng should fail")
	}
	bad := good
	bad.Uplink = nil
	if _, err := Launch(w, "p", mobility.Static{}, bad, rng.New(1)); err == nil {
		t.Error("nil uplink should fail")
	}
	bad = good
	bad.ScanPeriod = 0
	if _, err := Launch(w, "p", mobility.Static{}, bad, rng.New(1)); err == nil {
		t.Error("zero scan period should fail")
	}
	bad = good
	bad.Filter.Coeff = 2
	if _, err := Launch(w, "p", mobility.Static{}, bad, rng.New(1)); err == nil {
		t.Error("bad filter config should fail")
	}
	bad = good
	bad.Power.BLEScanMW = -5
	if _, err := Launch(w, "p", mobility.Static{}, bad, rng.New(1)); err == nil {
		t.Error("bad power profile should fail")
	}
}

// TestLaunchRefusesMalformedRegion: a region the monitoring API cannot
// express would match no beacon, so the phone would never range; Launch
// refuses it instead of running silent.
func TestLaunchRefusesMalformedRegion(t *testing.T) {
	w := testWorld(t, 1)
	var reports []transport.Report
	for _, region := range []ibeacon.Region{
		{UUID: building.DeploymentUUID, Major: ibeacon.Any, Minor: 1}, // a minor needs a major
		{UUID: building.DeploymentUUID, Major: 70000, Minor: ibeacon.Any},
	} {
		cfg := baseConfig(collectorUplink(&reports))
		cfg.Region = region
		if _, err := Launch(w, "p", mobility.Static{}, cfg, rng.New(1)); err == nil || !strings.Contains(err.Error(), "ibeacon: region") {
			t.Errorf("Launch with region %+v: err = %v, want the region refused", region, err)
		}
	}
}

func TestLifecycleBootMonitorRange(t *testing.T) {
	w := testWorld(t, 2)
	var reports []transport.Report
	a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, baseConfig(collectorUplink(&reports)), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.state != Booting {
		t.Fatalf("initial state = %v", a.state)
	}
	w.Run(30 * time.Second)
	if a.state != Ranging {
		t.Fatalf("state after 30 s beside a beacon = %v", a.state)
	}
	st := a.Stats()
	if st.RegionEnters != 1 {
		t.Fatalf("region enters = %d", st.RegionEnters)
	}
	if st.ReportsSent == 0 || len(reports) != st.ReportsSent {
		t.Fatalf("reports sent = %d, collected = %d", st.ReportsSent, len(reports))
	}
	// Reports carry the ranged beacon.
	last := reports[len(reports)-1]
	if last.Device != "phone" || len(last.Beacons) == 0 {
		t.Fatalf("report = %+v", last)
	}
}

func TestRegionExitWhenOutOfRange(t *testing.T) {
	w := testWorld(t, 3)
	// Dwell beside the beacon long enough for a certain region entry,
	// then walk far outside radio range.
	walk, err := mobility.NewStops([]mobility.Stop{
		{P: geom.Pt(1.5, 3), Dwell: 10 * time.Second},
		{P: geom.Pt(400, 3), Dwell: time.Second},
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var reports []transport.Report
	a, err := Launch(w, "phone", walk, baseConfig(collectorUplink(&reports)), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(60 * time.Second)
	if a.state != Monitoring {
		t.Fatalf("state after leaving range = %v", a.state)
	}
	// An exit is counted only on leaving Ranging, so it implies an
	// earlier enter, and the final state shows the last transition was
	// an exit.
	st := a.Stats()
	if st.RegionEnters == 0 || st.RegionExits == 0 {
		t.Fatalf("enters = %d, exits = %d, want both > 0", st.RegionEnters, st.RegionExits)
	}
}

func TestEnergyAccountingWiFiVsBluetooth(t *testing.T) {
	run := func(kind energy.Uplink) float64 {
		w := testWorld(t, 4)
		var reports []transport.Report
		cfg := baseConfig(collectorUplink(&reports))
		cfg.UplinkKind = kind
		a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, cfg, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		w.Run(time.Hour)
		return a.Meter().UsedJ()
	}
	wifi := run(energy.WiFi)
	bt := run(energy.Bluetooth)
	if bt >= wifi {
		t.Fatalf("bluetooth energy %v should be below wifi %v", bt, wifi)
	}
	saving := (wifi - bt) / wifi
	if saving < 0.08 || saving > 0.25 {
		t.Fatalf("saving = %v, want around 0.15", saving)
	}
}

func TestBatteryLoggerSamples(t *testing.T) {
	w := testWorld(t, 5)
	var reports []transport.Report
	cfg := baseConfig(collectorUplink(&reports))
	a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(30 * time.Minute)
	entries := a.BatteryLog().Entries()
	if len(entries) < 25 {
		t.Fatalf("log entries = %d", len(entries))
	}
	// Levels are monotone non-increasing.
	for i := 1; i < len(entries); i++ {
		if entries[i].Level > entries[i-1].Level {
			t.Fatal("battery level increased")
		}
	}
	if entries[len(entries)-1].Level >= 1 {
		t.Fatal("no drain recorded")
	}
}

func TestMotionGateSkipsReportsWhenStill(t *testing.T) {
	run := func(gate bool) Stats {
		w := testWorld(t, 6)
		var reports []transport.Report
		cfg := baseConfig(collectorUplink(&reports))
		cfg.MotionGate = gate
		a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, cfg, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		w.Run(2 * time.Minute)
		return a.Stats()
	}
	gated := run(true)
	ungated := run(false)
	if gated.ReportsSent >= ungated.ReportsSent {
		t.Fatalf("gated reports %d should be below ungated %d", gated.ReportsSent, ungated.ReportsSent)
	}
}

func TestMotionGateSavesEnergy(t *testing.T) {
	run := func(gate bool) float64 {
		w := testWorld(t, 7)
		var reports []transport.Report
		cfg := baseConfig(collectorUplink(&reports))
		cfg.MotionGate = gate
		a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		w.Run(30 * time.Minute)
		return a.Meter().UsedJ()
	}
	if gated, ungated := run(true), run(false); gated >= ungated {
		t.Fatalf("gated energy %v should be below ungated %v", gated, ungated)
	}
}

func TestSendFailuresCountedAndRetried(t *testing.T) {
	w := testWorld(t, 8)
	fails := 0
	flaky := transport.SendFunc{
		Label: "flaky",
		F: func(transport.Report) error {
			fails++
			if fails%3 == 0 {
				return errors.New("transient")
			}
			return nil
		},
	}
	cfg := baseConfig(flaky)
	a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(2 * time.Minute)
	st := a.Stats()
	if st.SendFailures == 0 {
		t.Fatal("no failures recorded")
	}
	if st.ReportsSent == 0 {
		t.Fatal("nothing delivered despite retries")
	}
}

func TestStateString(t *testing.T) {
	if Booting.String() != "booting" || Monitoring.String() != "monitoring" || Ranging.String() != "ranging" {
		t.Fatal("bad state strings")
	}
	if !strings.Contains(State(9).String(), "9") {
		t.Fatal("unknown state should include value")
	}
}

func TestEstimatesExposed(t *testing.T) {
	w := testWorld(t, 9)
	var reports []transport.Report
	a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, baseConfig(collectorUplink(&reports)), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(time.Minute)
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	es := reports[len(reports)-1].Beacons
	if len(es) != 1 {
		t.Fatalf("estimates = %d", len(es))
	}
	// Beacon is ~2 m away; the filtered estimate should be in a sane
	// band.
	if es[0].Distance < 0.3 || es[0].Distance > 8 {
		t.Fatalf("estimated distance = %v for true ≈2 m", es[0].Distance)
	}
	if a.Stats().Cycles == 0 {
		t.Fatal("scanner stats empty")
	}
}

func TestUplinkOutageRecovery(t *testing.T) {
	// The server goes down mid-run; the retry queue must deliver the
	// reports queued within their attempt budget once it recovers.
	w := testWorld(t, 11)
	down := false
	var delivered []float64 // AtSeconds of each delivered report
	flaky := transport.SendFunc{
		Label: "outage",
		F: func(r transport.Report) error {
			if down {
				return errors.New("server unreachable")
			}
			delivered = append(delivered, r.AtSeconds)
			return nil
		},
	}
	cfg := baseConfig(flaky)
	a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(30 * time.Second)
	beforeOutage := len(delivered)
	if beforeOutage == 0 {
		t.Fatal("nothing delivered before outage")
	}
	down = true
	w.Run(30 * time.Second)
	duringOutage := len(delivered)
	if duringOutage != beforeOutage {
		t.Fatal("reports delivered during outage")
	}
	recovered := w.Engine().Now().Seconds()
	down = false
	w.Run(30 * time.Second)
	// Recovery must deliver both the backlog and new reports.
	backlog, fresh := 0, 0
	for _, at := range delivered[duringOutage:] {
		if at <= recovered {
			backlog++
		} else {
			fresh++
		}
	}
	if backlog == 0 || fresh == 0 {
		t.Fatalf("after recovery: %d queued and %d new reports delivered, want both", backlog, fresh)
	}
	if a.Stats().SendFailures == 0 {
		t.Fatal("outage not observed by stats")
	}
}

func TestDepletedBatteryStopsTheApp(t *testing.T) {
	w := testWorld(t, 12)
	var reports []transport.Report
	cfg := baseConfig(collectorUplink(&reports))
	// A tiny battery dies within the first cycles.
	cfg.Profile.Battery = device.Battery{CapacitymAh: 1, VoltageV: 1} // 3.6 J
	a, err := Launch(w, "phone", mobility.Static{P: geom.Pt(2.5, 3)}, cfg, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(5 * time.Minute)
	if !a.Meter().Depleted() {
		t.Fatal("battery should be flat")
	}
	cyclesAtDeath := a.Stats().Cycles
	w.Run(5 * time.Minute)
	if a.Stats().Cycles != cyclesAtDeath {
		t.Fatal("dead phone kept scanning")
	}
}

package core

import (
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/energy"
	"occusim/internal/fingerprint"
	"occusim/internal/geom"
	"occusim/internal/mobility"
)

func TestNewScenarioValidation(t *testing.T) {
	if _, err := NewScenario(ScenarioConfig{}); err == nil {
		t.Error("missing building should fail")
	}
	bad := &building.Building{Rooms: []building.Room{{Name: ""}}}
	if _, err := NewScenario(ScenarioConfig{Building: bad}); err == nil {
		t.Error("invalid building should fail")
	}
	if _, err := NewScenario(ScenarioConfig{Building: building.SingleRoom(), Seed: 1}); err != nil {
		t.Errorf("valid scenario failed: %v", err)
	}
}

func TestPhoneReportsReachServer(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Building: building.SingleRoom(), Seed: 2, TrackerDebounce: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = scn.AddPhone("phone-1", mobility.Static{P: geom.Pt(2, 3)}, PhoneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	scn.Run(time.Minute)
	snap := scn.Server().Occupancy()
	if snap.Devices["phone-1"] != "lab" {
		t.Fatalf("occupancy = %+v", snap)
	}
	if devices := scn.Server().KnownDevices(); len(devices) != 1 {
		t.Fatalf("store devices = %v", devices)
	}
}

func TestBTRelayUplinkDeliversWithDrops(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Building: building.SingleRoom(), Seed: 3, TrackerDebounce: 1})
	if err != nil {
		t.Fatal(err)
	}
	uplink, err := scn.BTRelayUplink(0.3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := scn.AddPhone("phone-bt", mobility.Static{P: geom.Pt(2, 3)}, PhoneConfig{
		Uplink:     uplink,
		UplinkKind: energy.Bluetooth,
	})
	if err != nil {
		t.Fatal(err)
	}
	scn.Run(3 * time.Minute)
	st := a.Stats()
	if st.SendFailures == 0 {
		t.Fatal("BT relay at 30% drop should fail sometimes")
	}
	if st.ReportsSent == 0 {
		t.Fatal("nothing delivered through the relay")
	}
	if scn.Server().Occupancy().Devices["phone-bt"] != "lab" {
		t.Fatal("server did not learn the phone's room")
	}
}

func TestCollectFingerprintsLabelsAndCoverage(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Building: building.PaperHouse(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := scn.CollectFingerprints(CollectConfig{
		PointsPerRoom:  3,
		DwellPerPoint:  6 * time.Second,
		IncludeOutside: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 50 {
		t.Fatalf("samples collected = %d", ds.Len())
	}
	counts := map[string]int{}
	for _, s := range ds.Samples {
		counts[s.Room]++
	}
	for _, room := range scn.Building().RoomNames() {
		if counts[room] == 0 {
			t.Errorf("no samples for room %q", room)
		}
	}
	if counts[building.Outside] == 0 {
		t.Error("no outside samples")
	}
	if len(ds.Beacons) != len(scn.Building().Beacons) {
		t.Errorf("dataset beacons = %d", len(ds.Beacons))
	}
}

func TestRunLabelledWalkProducesSamples(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Building: building.PaperHouse(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := scn.RunLabelledWalk(WalkConfig{Duration: 4 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// 4 minutes at 2 s cycles ≈ 120 samples (minus dropped cycles).
	if ds.Len() < 80 {
		t.Fatalf("walk samples = %d", ds.Len())
	}
	visited := map[string]bool{}
	for _, s := range ds.Samples {
		visited[s.Room] = true
	}
	if len(visited) < 3 {
		t.Fatalf("walk visited too few rooms: %v", visited)
	}
}

func TestOutsideArea(t *testing.T) {
	b := building.PaperHouse()
	area := OutsideArea(b)
	if area.Min.X <= b.Bounds().Max.X {
		t.Fatal("outside area overlaps building")
	}
	centre := geom.Pt((area.Min.X+area.Max.X)/2, (area.Min.Y+area.Max.Y)/2)
	if b.RoomAt(centre) != building.Outside {
		t.Fatal("outside area centre not outside")
	}
}

func TestOffsetModel(t *testing.T) {
	p, err := mobility.NewPath([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	om := offsetModel{m: p, start: 100 * time.Second}
	if got := om.Position(100 * time.Second); got != geom.Pt(0, 0) {
		t.Fatalf("position at start = %v", got)
	}
	if got := om.Position(105 * time.Second); got.Dist(geom.Pt(5, 0)) > 1e-6 {
		t.Fatalf("position mid = %v", got)
	}
	if om.End() != 110*time.Second {
		t.Fatalf("end = %v", om.End())
	}
}

func TestScenarioDeterministic(t *testing.T) {
	run := func() int {
		scn, err := NewScenario(ScenarioConfig{Building: building.SingleRoom(), Seed: 77, TrackerDebounce: 1})
		if err != nil {
			t.Fatal(err)
		}
		a, err := scn.AddPhone("p", mobility.Static{P: geom.Pt(2, 3)}, PhoneConfig{})
		if err != nil {
			t.Fatal(err)
		}
		scn.Run(time.Minute)
		return a.Stats().ReportsSent
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed scenarios differ: %d vs %d", a, b)
	}
}

func TestTrialSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full trial is slow")
	}
	res, err := RunClassificationTrial(TrialConfig{
		Scenario: ScenarioConfig{Building: building.PaperHouse(), Seed: 11},
		Collect: CollectConfig{
			PointsPerRoom:  3,
			DwellPerPoint:  6 * time.Second,
			IncludeOutside: true,
		},
		Walk: WalkConfig{Duration: 5 * time.Minute, IncludeOutside: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainSamples == 0 || res.TestSamples == 0 {
		t.Fatalf("empty datasets: %d / %d", res.TrainSamples, res.TestSamples)
	}
	// The scene-analysis SVM must clearly beat chance (7 classes) and
	// generally beats proximity; exact margins are the experiment's
	// business, not this smoke test's.
	if res.SVM.Accuracy < 0.5 {
		t.Fatalf("SVM accuracy = %v", res.SVM.Accuracy)
	}
	if res.Proximity.Accuracy < 0.3 {
		t.Fatalf("proximity accuracy = %v", res.Proximity.Accuracy)
	}
	_ = fingerprint.MissingDistance
}

package bms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/occupancy"
	"occusim/internal/rng"
	"occusim/internal/store"
	"occusim/internal/transport"
)

func newTestServer(t testing.TB) (*Server, *building.Building) {
	t.Helper()
	b := building.PaperHouse()
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(b, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

// evict exports the device's state, then runs an unfenced eviction,
// failing the test on an error: the state that left, as a move takes it.
func evict(t testing.TB, s *Server, device string) (DeviceState, bool) {
	t.Helper()
	st, ok := s.ExportDevice(device)
	if err := s.EvictDevice(0, device); err != nil {
		t.Fatal(err)
	}
	return st, ok
}

// expire runs an unfenced TTL sweep and fails the test on an error.
func expire(t testing.TB, s *Server, cutoff time.Duration) []string {
	t.Helper()
	expired, err := s.ExpireBefore(0, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	return expired
}

// reportNear fabricates a report placing the device beside one beacon.
func reportNear(b *building.Building, device string, beaconIdx int, atSeconds float64) transport.Report {
	rep := transport.Report{Device: device, AtSeconds: atSeconds}
	for i, bc := range b.Beacons {
		d := 1.5
		if i != beaconIdx {
			d = 8.0 + float64((i-beaconIdx)*(i-beaconIdx))
		}
		if d > 20 {
			d = 20
		}
		rep.Beacons = append(rep.Beacons, transport.BeaconReport{
			ID:       bc.ID.String(),
			Distance: d,
			RSSI:     -60 - d,
		})
	}
	return rep
}

func TestNewServerValidation(t *testing.T) {
	st, _ := store.New(10)
	if _, err := NewServer(nil, st, 1); err == nil {
		t.Error("nil building should fail")
	}
	if _, err := NewServer(building.PaperHouse(), nil, 1); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := NewServer(building.PaperHouse(), st, 0); err == nil {
		t.Error("bad debounce should fail")
	}
	bad := &building.Building{Rooms: []building.Room{{Name: ""}}}
	if _, err := NewServer(bad, st, 1); err == nil {
		t.Error("invalid building should fail")
	}
}

func TestIngestClassifiesWithProximityByDefault(t *testing.T) {
	s, b := newTestServer(t)
	if fmt.Sprintf("%T", s.classifierSnapshot()) != "*classify.Proximity" {
		t.Fatalf("default classifier = %s", fmt.Sprintf("%T", s.classifierSnapshot()))
	}
	room, err := s.Ingest(reportNear(b, "phone", 0, 1)) // beside kitchen beacon
	if err != nil {
		t.Fatal(err)
	}
	if room != "kitchen" {
		t.Fatalf("room = %q", room)
	}
	snap := s.Occupancy()
	if snap.Devices["phone"] != "kitchen" || snap.Rooms["kitchen"] != 1 {
		t.Fatalf("occupancy = %+v", snap)
	}
}

func TestIngestErrors(t *testing.T) {
	s, b := newTestServer(t)
	if _, err := s.Ingest(transport.Report{}); err == nil {
		t.Error("missing device should fail")
	}
	bad := reportNear(b, "p", 0, 1)
	bad.Beacons[0].ID = "garbage"
	if _, err := s.Ingest(bad); err == nil {
		t.Error("bad beacon id should fail")
	}
}

func TestAddFingerprintValidatesRoom(t *testing.T) {
	s, b := newTestServer(t)
	ok := fingerprint.Sample{
		Room:      "kitchen",
		Distances: map[ibeacon.BeaconID]float64{b.Beacons[0].ID: 2},
	}
	if err := s.AddFingerprint(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFingerprint(fingerprint.Sample{Room: building.Outside}); err != nil {
		t.Fatal("outside label must be allowed")
	}
	if err := s.AddFingerprint(fingerprint.Sample{Room: "atlantis"}); err == nil {
		t.Fatal("unknown room should fail")
	}
}

// trainServer populates fingerprints placing each room's beacon near and
// trains the model.
func trainServer(t testing.TB, s *Server, b *building.Building) TrainResult {
	t.Helper()
	src := rng.New(1)
	for round := 0; round < 25; round++ {
		for i, bc := range b.Beacons {
			sample := fingerprint.Sample{Room: bc.Room, Distances: map[ibeacon.BeaconID]float64{}}
			for j, other := range b.Beacons {
				base := 2.0
				if j != i {
					diff := float64(j - i)
					base = 5 + 2*diff*diff
					if base > 20 {
						base = 20
					}
				}
				sample.Distances[other.ID] = base + src.Normal(0, 0.3)
			}
			if err := s.AddFingerprint(sample); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := s.Train(10, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTrainSwitchesToSceneSVM(t *testing.T) {
	s, b := newTestServer(t)
	if _, err := s.Train(10, 0.2, 1); err == nil {
		t.Fatal("training without fingerprints should fail")
	}
	res := trainServer(t, s, b)
	if res.Samples == 0 || res.SupportVectors == 0 || res.ModelVersion != 1 {
		t.Fatalf("train result = %+v", res)
	}
	if fmt.Sprintf("%T", s.classifierSnapshot()) != "*classify.SceneSVM" {
		t.Fatalf("classifier after training = %s", fmt.Sprintf("%T", s.classifierSnapshot()))
	}
	// Ingest near the study beacon: the SVM should place it correctly.
	room, err := s.Ingest(reportNear(b, "phone", 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if room != "study" {
		t.Fatalf("SVM room = %q, want study", room)
	}
}

func TestRESTEndpoints(t *testing.T) {
	s, b := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Health.
	resp, err := http.Get(ts.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %s", resp.Status)
	}
	resp.Body.Close()

	// Model before training: 404.
	resp, _ = http.Get(ts.URL + "/api/v1/model")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("model before training = %s", resp.Status)
	}
	resp.Body.Close()

	// Post fingerprints via REST.
	for round := 0; round < 20; round++ {
		for i, bc := range b.Beacons {
			dist := map[string]float64{}
			for j, other := range b.Beacons {
				d := 2.0
				if j != i {
					d = 6 + 2*float64((j-i)*(j-i))
					if d > 20 {
						d = 20
					}
				}
				dist[other.ID.String()] = d + 0.1*float64(round%5)
			}
			body, _ := json.Marshal(map[string]any{
				"room":      bc.Room,
				"atSeconds": float64(round),
				"distances": dist,
			})
			resp, err := http.Post(ts.URL+"/api/v1/fingerprints", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fingerprint post = %s", resp.Status)
			}
			resp.Body.Close()
		}
	}

	// Train via REST.
	trainBody, _ := json.Marshal(map[string]any{"c": 10.0, "gamma": 0.2, "seed": 7})
	resp, err = http.Post(ts.URL+"/api/v1/train", "application/json", bytes.NewReader(trainBody))
	if err != nil {
		t.Fatal(err)
	}
	var trainRes TrainResult
	if err := json.NewDecoder(resp.Body).Decode(&trainRes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || trainRes.ModelVersion != 1 {
		t.Fatalf("train = %s %+v", resp.Status, trainRes)
	}

	// Observation via REST (the Wi-Fi uplink path).
	uplink := &transport.HTTPUplink{BaseURL: ts.URL}
	if err := uplink.Send(reportNear(b, "phone-9", 1, 30)); err != nil {
		t.Fatal(err)
	}

	// Occupancy reflects it.
	resp, err = http.Get(ts.URL + "/api/v1/occupancy")
	if err != nil {
		t.Fatal(err)
	}
	var snap OccupancySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Devices["phone-9"] != "living" {
		t.Fatalf("occupancy = %+v", snap)
	}

	// Device detail.
	resp, err = http.Get(ts.URL + "/api/v1/devices/phone-9")
	if err != nil {
		t.Fatal(err)
	}
	var dev map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&dev); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dev["room"] != "living" {
		t.Fatalf("device detail = %+v", dev)
	}

	// Unknown device: 404.
	resp, _ = http.Get(ts.URL + "/api/v1/devices/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost device = %s", resp.Status)
	}
	resp.Body.Close()

	// Model now available.
	resp, _ = http.Get(ts.URL + "/api/v1/model")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model after training = %s", resp.Status)
	}
	resp.Body.Close()

	// Malformed bodies: 400.
	for _, path := range []string{"/api/v1/observations", "/api/v1/fingerprints"} {
		resp, _ := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte("{bad")))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with bad body = %s", path, resp.Status)
		}
		resp.Body.Close()
	}
}

func TestHVACConfigValidate(t *testing.T) {
	if err := DefaultHVAC().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []HVACConfig{
		{RoomPowerKW: -1},
		{LightPowerKW: -1},
		{Grace: -time.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestCompareEnergy(t *testing.T) {
	rooms := []string{"a", "b"}
	events := []occupancy.Event{
		{At: 0, Device: "p", Kind: occupancy.Enter, Room: "a"},
		{At: 2 * time.Hour, Device: "p", Kind: occupancy.Exit, Room: "a"},
		{At: 2 * time.Hour, Device: "p", Kind: occupancy.Enter, Room: "b"},
		{At: 3 * time.Hour, Device: "p", Kind: occupancy.Exit, Room: "b"},
	}
	cfg := HVACConfig{RoomPowerKW: 1, LightPowerKW: 0, Grace: 0}
	cmp, err := CompareEnergy(rooms, events, 10*time.Hour, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.BaselineKWh != 20 { // 2 rooms × 10 h × 1 kW
		t.Fatalf("baseline = %v", cmp.BaselineKWh)
	}
	if cmp.DemandKWh != 3 { // 2 h in a + 1 h in b
		t.Fatalf("demand = %v", cmp.DemandKWh)
	}
	if cmp.SavingFraction != 1-3.0/20 {
		t.Fatalf("saving = %v", cmp.SavingFraction)
	}
	if cmp.PerRoom["a"].Occupied != 2*time.Hour {
		t.Fatalf("room a usage = %+v", cmp.PerRoom["a"])
	}
}

func TestCompareEnergyGraceMergesIntervals(t *testing.T) {
	rooms := []string{"a"}
	events := []occupancy.Event{
		{At: 0, Kind: occupancy.Enter, Room: "a", Device: "p"},
		{At: time.Hour, Kind: occupancy.Exit, Room: "a", Device: "p"},
		// Re-enter within the grace window.
		{At: time.Hour + 10*time.Minute, Kind: occupancy.Enter, Room: "a", Device: "p"},
		{At: 2 * time.Hour, Kind: occupancy.Exit, Room: "a", Device: "p"},
	}
	cfg := HVACConfig{RoomPowerKW: 1, Grace: 15 * time.Minute}
	cmp, err := CompareEnergy(rooms, events, 4*time.Hour, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Conditioned: 0 → 2h15m (merged across the 10-minute gap).
	want := 2*time.Hour + 15*time.Minute
	if cmp.PerRoom["a"].Conditioned != want {
		t.Fatalf("conditioned = %v, want %v", cmp.PerRoom["a"].Conditioned, want)
	}
}

func TestCompareEnergyOpenIntervalAtHorizon(t *testing.T) {
	rooms := []string{"a"}
	events := []occupancy.Event{
		{At: time.Hour, Kind: occupancy.Enter, Room: "a", Device: "p"},
	}
	cmp, err := CompareEnergy(rooms, events, 3*time.Hour, HVACConfig{RoomPowerKW: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.PerRoom["a"].Occupied != 2*time.Hour {
		t.Fatalf("open interval occupied = %v", cmp.PerRoom["a"].Occupied)
	}
}

func TestCompareEnergyErrors(t *testing.T) {
	if _, err := CompareEnergy(nil, nil, time.Hour, DefaultHVAC()); err == nil {
		t.Error("no rooms should fail")
	}
	if _, err := CompareEnergy([]string{"a"}, nil, 0, DefaultHVAC()); err == nil {
		t.Error("zero horizon should fail")
	}
	if _, err := CompareEnergy([]string{"a"}, nil, time.Hour, HVACConfig{RoomPowerKW: -1}); err == nil {
		t.Error("bad config should fail")
	}
}

func TestCompareEnergyIgnoresOutside(t *testing.T) {
	rooms := []string{"a"}
	events := []occupancy.Event{
		{At: 0, Kind: occupancy.Enter, Room: building.Outside, Device: "p"},
		{At: time.Hour, Kind: occupancy.Exit, Room: building.Outside, Device: "p"},
	}
	cmp, err := CompareEnergy(rooms, events, 2*time.Hour, HVACConfig{RoomPowerKW: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.DemandKWh != 0 {
		t.Fatalf("outside should not be conditioned: %v", cmp.DemandKWh)
	}
}

func TestEventsExposed(t *testing.T) {
	s, b := newTestServer(t)
	_, _ = s.Ingest(reportNear(b, "p", 0, 1))
	_, _ = s.Ingest(reportNear(b, "p", 1, 2))
	events := s.Events()
	if len(events) != 3 { // enter kitchen, exit kitchen, enter living
		t.Fatalf("events = %d: %+v", len(events), events)
	}
	_ = fmt.Sprint(events[0])
}

package occusim_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"occusim"
)

// TestNetworkedPipeline exercises the full deployment over a real HTTP
// boundary: simulated beacons and phones on one side, a standalone BMS
// (as cmd/bmsd runs it) on the other, connected by the Wi-Fi uplink —
// the architecture of the paper's Figure 2.
func TestNetworkedPipeline(t *testing.T) {
	b := occusim.PaperHouse()

	// Server side: a standalone BMS behind httptest.
	server, err := occusim.NewBMS(b, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// Client side: a scenario whose phones post over real HTTP.
	scn, err := occusim.NewScenario(occusim.ScenarioConfig{Building: b, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	uplink := &occusim.HTTPUplink{BaseURL: ts.URL}
	if _, err := scn.AddPhone("alice", occusim.Static{P: occusim.Pt(2, 2)},
		occusim.PhoneConfig{Uplink: uplink}); err != nil {
		t.Fatal(err)
	}
	if _, err := scn.AddPhone("bob", occusim.Static{P: occusim.Pt(10, 6)},
		occusim.PhoneConfig{Uplink: uplink}); err != nil {
		t.Fatal(err)
	}
	scn.Run(90 * time.Second)

	// Query the REST API like a dashboard would.
	resp, err := http.Get(ts.URL + "/api/v1/occupancy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Rooms   map[string]int    `json:"rooms"`
		Devices map[string]string `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Devices["alice"] != "kitchen" {
		t.Errorf("alice in %q, want kitchen", snap.Devices["alice"])
	}
	if snap.Devices["bob"] != "hallway" {
		t.Errorf("bob in %q, want hallway", snap.Devices["bob"])
	}
	if snap.Rooms["kitchen"] != 1 || snap.Rooms["hallway"] != 1 {
		t.Errorf("rooms = %v", snap.Rooms)
	}

	// Device detail endpoint carries the last ranged beacons.
	resp2, err := http.Get(ts.URL + "/api/v1/devices/alice")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var detail struct {
		Room    string `json:"room"`
		Beacons []struct {
			ID       string  `json:"id"`
			Distance float64 `json:"distance"`
		} `json:"beacons"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if detail.Room != "kitchen" || len(detail.Beacons) == 0 {
		t.Errorf("device detail = %+v", detail)
	}
}

// TestNetworkedTrainingFlow pushes fingerprints and trains the SVM over
// HTTP, then verifies observations are classified by the trained model.
func TestNetworkedTrainingFlow(t *testing.T) {
	b := occusim.PaperHouse()
	server, err := occusim.NewBMS(b, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// Collect fingerprints in a simulation and upload them over HTTP.
	scn, err := occusim.NewScenario(occusim.ScenarioConfig{Building: b, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := scn.CollectFingerprints(occusim.CollectConfig{
		PointsPerRoom:  3,
		DwellPerPoint:  6 * time.Second,
		IncludeOutside: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Samples {
		payload := map[string]any{
			"room":      s.Room,
			"atSeconds": s.At.Seconds(),
			"distances": map[string]float64{},
		}
		dist := payload["distances"].(map[string]float64)
		for id, d := range s.Distances {
			dist[id.String()] = d
		}
		if err := postJSON(t, ts.URL+"/api/v1/fingerprints", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := postJSON(t, ts.URL+"/api/v1/train", map[string]any{"c": 10.0, "gamma": 0.03}); err != nil {
		t.Fatal(err)
	}
	if _, ok := server.ModelSnapshot(); !ok {
		t.Fatal("no model installed after /train: the server still classifies by proximity")
	}

	// A phone in the study should now be placed by the trained model.
	scn2, err := occusim.NewScenario(occusim.ScenarioConfig{Building: b, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scn2.AddPhone("carol", occusim.Static{P: occusim.Pt(10, 2)},
		occusim.PhoneConfig{Uplink: &occusim.HTTPUplink{BaseURL: ts.URL}}); err != nil {
		t.Fatal(err)
	}
	scn2.Run(time.Minute)
	if got := server.Occupancy().Devices["carol"]; got != "study" {
		t.Fatalf("carol placed in %q, want study", got)
	}
}

func postJSON(t *testing.T, url string, payload any) error {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	return nil
}

// TestNetworkedBluetoothRelay drives the Section VII Bluetooth
// architecture across the HTTP boundary: phone → flaky BLE hop → beacon
// board → HTTP → BMS. Reports are lost on the BLE hop sometimes, but the
// retry queue keeps occupancy converging.
func TestNetworkedBluetoothRelay(t *testing.T) {
	b := occusim.PaperHouse()
	server, err := occusim.NewBMS(b, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	scn, err := occusim.NewScenario(occusim.ScenarioConfig{Building: b, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	relay, err := occusim.NewBTRelay(&occusim.HTTPUplink{BaseURL: ts.URL}, 0.2, 31)
	if err != nil {
		t.Fatal(err)
	}
	phone, err := scn.AddPhone("dave", occusim.Static{P: occusim.Pt(6, 6)}, occusim.PhoneConfig{
		Uplink:     relay,
		UplinkKind: occusim.BluetoothUplink,
	})
	if err != nil {
		t.Fatal(err)
	}
	scn.Run(2 * time.Minute)

	if phone.Stats().SendFailures == 0 {
		t.Fatal("BLE hop at 20% drop should fail sometimes")
	}
	if got := server.Occupancy().Devices["dave"]; got != "bathroom" {
		t.Fatalf("dave placed in %q, want bathroom", got)
	}
}

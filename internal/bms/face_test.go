package bms_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fingerprint"
	"occusim/internal/fleet"
	"occusim/internal/ibeacon"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// TestLogFailureIsNotTheClientsFault: a durable server whose log refuses
// an append applied nothing of the write, so no face may answer as if the
// write were wrong — a device uplink treats a 4xx other than 429 as final
// and would drop a batch that never landed. The box answers 503 with a
// Retry-After; a gateway over it in process passes that on; over HTTP the
// shard hangs up its stream as a dead shard would, and the gateway
// answers the 502 a dead shard gets. Every other write the box takes —
// evict, install, expire, a model, a fingerprint, a training run, a lease
// claim — answers the box's 503 too, and moves no state.
func TestLogFailureIsNotTheClientsFault(t *testing.T) {
	b := building.PaperHouse()
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := bms.OpenDurableServer(b, st, 2, bms.DurableConfig{Dir: t.TempDir(), Policy: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Streams().Stop()
	// What the cold writes would move: a resident device to evict and
	// sweep, and fingerprints to train on — the ones a volatile twin fits
	// the model the PUT distributes on.
	twinStore, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := bms.NewServer(b, twinStore, 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i, bc := range b.Beacons {
			sample := fingerprint.Sample{Room: bc.Room, Distances: map[ibeacon.BeaconID]float64{}}
			for j, other := range b.Beacons {
				sample.Distances[other.ID] = 2 + 0.1*float64(round) + 3*float64((j-i)*(j-i))
			}
			for _, s := range []*bms.Server{srv, twin} {
				if err := s.AddFingerprint(sample); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := twin.Train(10, 0.2, 42); err != nil {
		t.Fatal(err)
	}
	model, _ := twin.ModelSnapshot()
	resident := transport.Report{Device: "resident", AtSeconds: 1, Epoch: 1, Seq: 1}
	for _, bc := range b.Beacons {
		resident.Beacons = append(resident.Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: 2, RSSI: -60})
	}
	if _, err := srv.Ingest(resident); err != nil {
		t.Fatal(err)
	}
	if err := bms.CloseLog(srv); err != nil {
		t.Fatal(err)
	}
	type state struct {
		devices map[string]bms.DeviceState
		model   bms.ModelSnapshot
		epoch   uint64
		holder  string
	}
	capture := func() state {
		s := state{devices: map[string]bms.DeviceState{}}
		for _, device := range []string{"resident", "phone", "newcomer"} {
			if ds, ok := srv.ExportDevice(device); ok {
				s.devices[device] = ds
			}
		}
		s.model, _ = srv.ModelSnapshot()
		s.epoch, s.holder = srv.GrantedLease()
		return s
	}
	before := capture()
	box := httptest.NewServer(srv.Handler())
	defer box.Close()
	gatewayOver := func(shard fleet.Shard) string {
		gw, err := fleet.New([]fleet.Shard{shard}, fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(fleet.Handler(gw, fleet.HandlerOptions{}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	local, err := fleet.NewLocalShard("shard-0", srv)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := fleet.NewHTTPShard(box.URL, nil, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}

	report := transport.Report{Device: "phone", AtSeconds: 1, Epoch: 1, Seq: 1}
	for _, bc := range b.Beacons {
		report.Beacons = append(report.Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: 2, RSSI: -60})
	}
	asJSON, err := json.Marshal([]transport.Report{report})
	if err != nil {
		t.Fatal(err)
	}
	wb := new(wire.Batch)
	if err := transport.EncodeReports(wb, []transport.Report{report}); err != nil {
		t.Fatal(err)
	}
	asFrame := wire.AppendFrame(nil, wb)

	for _, face := range []struct {
		name, url  string
		status     int
		retryAfter string
	}{
		{"the box", box.URL, http.StatusServiceUnavailable, "1"},
		{"a gateway over a LocalShard", gatewayOver(local), http.StatusServiceUnavailable, "1"},
		{"a gateway over an HTTPShard", gatewayOver(remote), http.StatusBadGateway, ""},
	} {
		for contentType, body := range map[string][]byte{"application/json": asJSON, wire.ContentType: asFrame} {
			resp, err := http.Post(face.url+"/api/v1/observations:batch", contentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var answer struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
				t.Fatalf("%s, %s: undecodable answer: %v", face.name, contentType, err)
			}
			resp.Body.Close()
			if resp.StatusCode != face.status || resp.Header.Get("Retry-After") != face.retryAfter || answer.Error == "" {
				t.Errorf("%s answered a %s upload the log refused with %d, Retry-After %q (%s); want %d, Retry-After %q",
					face.name, contentType, resp.StatusCode, resp.Header.Get("Retry-After"), answer.Error, face.status, face.retryAfter)
			}
		}
	}
	if got := capture(); !reflect.DeepEqual(got, before) {
		t.Fatalf("uploads the log refused moved state:\n got: %+v\nwant: %+v", got, before)
	}

	modelBody, err := json.Marshal(model)
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf(`{"room":%q,"distances":{%q:1.5}}`, b.Beacons[0].Room, b.Beacons[0].ID.String())
	for _, write := range []struct{ name, method, path, body string }{
		{"model", http.MethodPut, "/api/v1/model", string(modelBody)},
		{"fingerprint", http.MethodPost, "/api/v1/fingerprints", fp},
		{"train", http.MethodPost, "/api/v1/train", `{}`},
	} {
		req, err := http.NewRequest(write.method, box.URL+write.path, strings.NewReader(write.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Errorf("the box answered the %s the log refused with %d, Retry-After %q (%s); want 503, Retry-After \"1\"",
				write.name, resp.StatusCode, resp.Header.Get("Retry-After"), bytes.TrimSpace(body))
		}
		if got := capture(); !reflect.DeepEqual(got, before) {
			t.Errorf("the %s the log refused moved state:\n got: %+v\nwant: %+v", write.name, got, before)
			before = got
		}
	}
	// A gateway's cold writes ride the shard stream, where a log that
	// refuses the append hangs up, as it does for a frame: the gateway
	// reads a dead shard, which its retry policy and its 502 apply to.
	var newcomer bms.DeviceState
	if err := json.Unmarshal([]byte(`{"device":"newcomer","room":"kitchen","seen":true,"lastAtNanos":5,"epoch":1,"seq":1}`), &newcomer); err != nil {
		t.Fatal(err)
	}
	for _, write := range []struct {
		name string
		verb func() error
	}{
		{"evict", func() error { return remote.EvictDevice("resident") }},
		{"install", func() error { return remote.InstallDevice(newcomer) }},
		{"expire", func() error { _, err := remote.ExpireBefore(1000 * time.Second); return err }},
		{"model", func() error { return remote.InstallModel(model) }},
		{"lease claim", func() error { _, _, err := remote.Claim(1, "http://gw"); return err }},
	} {
		if err := write.verb(); transport.Classify(err).Class != transport.Unreachable {
			t.Errorf("the shard answered the %s the log refused with %v; want a hang-up", write.name, err)
		}
		if got := capture(); !reflect.DeepEqual(got, before) {
			t.Errorf("the %s the log refused moved state:\n got: %+v\nwant: %+v", write.name, got, before)
			before = got
		}
	}
}

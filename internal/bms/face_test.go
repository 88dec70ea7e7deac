package bms_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// TestLogFailureIsNotTheClientsFault: a durable server whose log refuses
// an append applied nothing of the upload, so no face may answer as if
// the upload were wrong — a device uplink treats a 4xx other than 429 as
// final and would drop a batch that never landed. The box answers 503
// with a Retry-After; a gateway over it in process passes that on; over
// HTTP the shard hangs up its stream as a dead shard would, and the
// gateway answers the 502 a dead shard gets. Nothing is ingested.
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
	defer srv.StopStreams()
	if err := bms.CloseLog(srv); err != nil {
		t.Fatal(err)
	}
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
	if devices := srv.KnownDevices(); len(devices) != 0 {
		t.Fatalf("uploads the log refused were ingested: %v", devices)
	}
}

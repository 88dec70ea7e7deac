package fleet_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// newHTTPFleet spins n bms servers behind httptest and fronts them with
// HTTPShard clients. Returned closers kill individual shard servers.
func newHTTPFleet(t *testing.T, b *building.Building, n int) (*fleet.Gateway, []*httptest.Server) {
	t.Helper()
	shards := make([]fleet.Shard, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		srv := newServer(t, b)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = hs
		servers[i] = ts
	}
	gw, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return gw, servers
}

// TestHTTPShardFleetEndToEnd drives a 3-shard HTTP fleet through model
// distribution, batch ingest and every federated read path, and checks
// the result matches the same stream through an in-process pool — the
// HTTP shard client must be a transparent transport.
func TestHTTPShardFleetEndToEnd(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 23)
	stream := synthStream(b, 12, 45, 5)

	gw, _ := newHTTPFleet(t, b, 3)
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}
	httpRooms, err := gw.IngestBatch(stream)
	if err != nil {
		t.Fatal(err)
	}

	pool, err := fleet.OpenLocalPool(b, 3, 2, 200, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	// The local pool names shards "shard-N" while HTTP shards are named
	// by URL, so the rings differ — equivalence of the *federated state*
	// must hold regardless, because it never depends on which shard a
	// device landed on.
	local, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := local.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}
	localRooms, err := local.IngestBatch(stream)
	if err != nil {
		t.Fatal(err)
	}

	if len(httpRooms) != len(localRooms) {
		t.Fatalf("room counts differ: %d vs %d", len(httpRooms), len(localRooms))
	}
	for i := range httpRooms {
		if httpRooms[i] != localRooms[i] {
			t.Fatalf("report %d: http fleet %q, local fleet %q", i, httpRooms[i], localRooms[i])
		}
	}

	ho, err := gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	lo, err := local.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, ho), mustJSON(t, lo); !bytes.Equal(got, want) {
		t.Fatalf("occupancy over HTTP differs:\n%s\nvs\n%s", got, want)
	}
	he, err := gw.Events()
	if err != nil {
		t.Fatal(err)
	}
	le, err := local.Events()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, he), mustJSON(t, le); !bytes.Equal(got, want) {
		t.Fatalf("events over HTTP differ:\n%s\nvs\n%s", got, want)
	}
	hd, err := gw.DwellTotals()
	if err != nil {
		t.Fatal(err)
	}
	ld, err := local.DwellTotals()
	if err != nil {
		t.Fatal(err)
	}
	// Dwell crosses the shard leg as integer nanoseconds: exact.
	if got, want := mustJSON(t, hd), mustJSON(t, ld); !bytes.Equal(got, want) {
		t.Fatalf("dwell over HTTP differs:\n%s\nvs\n%s", got, want)
	}
}

// TestHTTPFleetShardFailureReroutes kills one shard server and checks
// the gateway notices via health probes and keeps ingesting by sliding
// the dead shard's devices to survivors.
func TestHTTPFleetShardFailureReroutes(t *testing.T) {
	b := building.PaperHouse()
	gw, servers := newHTTPFleet(t, b, 3)

	stream := synthStream(b, 10, 5, 11)
	if _, err := gw.IngestBatch(stream); err != nil {
		t.Fatal(err)
	}

	servers[1].Close()
	statuses := gw.CheckHealth()
	downCount := 0
	for _, s := range statuses {
		if s.Down {
			downCount++
		}
	}
	if downCount != 1 || !statuses[1].Down {
		t.Fatalf("health after kill = %+v", statuses)
	}

	// The same crowd keeps reporting; everything must still ingest.
	later := synthStream(b, 10, 5, 11)
	for i := range later {
		later[i].AtSeconds += 100
	}
	if _, err := gw.IngestBatch(later); err != nil {
		t.Fatalf("ingest after shard loss: %v", err)
	}
	for d := 0; d < 10; d++ {
		idx, err := gw.ShardFor(later[d].Device)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 1 {
			t.Fatalf("device %q still routed to the dead shard", later[d].Device)
		}
	}
}

// TestHTTPShardDeviceMigration drives the migration surface over real
// HTTP: export from one remote shard, evict it there, install on
// another, expire by TTL — with the empty export of an unknown device
// read as (no state, no error), which is what the gateway's rebalance
// expects.
func TestHTTPShardDeviceMigration(t *testing.T) {
	b := building.PaperHouse()
	srcSrv := newServer(t, b)
	dstSrv := newServer(t, b)
	tsSrc := httptest.NewServer(srcSrv.Handler())
	defer tsSrc.Close()
	tsDst := httptest.NewServer(dstSrv.Handler())
	defer tsDst.Close()
	src, err := fleet.NewHTTPShard(tsSrc.URL, nil, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := fleet.NewHTTPShard(tsDst.URL, nil, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, err := src.ExportDevice("ghost"); err != nil || ok {
		t.Fatalf("export of unknown device = (ok=%v, err=%v), want (false, nil)", ok, err)
	}
	if err := src.EvictDevice("ghost"); err != nil {
		t.Fatalf("evict of unknown device: %v", err)
	}

	stream := synthStream(b, 1, 6, 17)
	stampStream(stream, 2)
	if _, err := ingestFrame(t, src, stream); err != nil {
		t.Fatal(err)
	}
	device := stream[0].Device
	st, ok, err := src.ExportDevice(device)
	if err != nil || !ok {
		t.Fatalf("export = (ok=%v, err=%v)", ok, err)
	}
	if st.Device != device || st.Seq != uint64(len(stream)) || st.Epoch != 2 {
		t.Fatalf("exported state = %+v", st)
	}
	if err := src.EvictDevice(device); err != nil {
		t.Fatal(err)
	}
	if sum, err := src.Summary(); err != nil || len(sum.Devices) != 0 {
		t.Fatalf("source still tracks %v (err %v)", sum.Devices, err)
	}

	if err := dst.InstallDevice(st); err != nil {
		t.Fatal(err)
	}
	sum, err := dst.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if _, present := sum.Devices[device]; !present {
		t.Fatalf("destination does not track the migrated device: %v", sum.Devices)
	}
	// The migrated mark dedupes the device's in-flight retransmissions
	// on the new owner.
	before, err := dst.Events()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingestFrame(t, dst, stream); err != nil {
		t.Fatal(err)
	}
	after, err := dst.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("retransmitted stream committed %d new events on the new owner", len(after)-len(before))
	}

	expired, err := dst.ExpireBefore(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(expired) != 1 || expired[0] != device {
		t.Fatalf("expire = %v, want [%s]", expired, device)
	}
}

// errorPhase names the step an answer's error came from: "decode" — the
// body never parsed —, "batch" — it parsed and the upload was refused
// whole, whichever face says so —, "install" — a shard refused the model
// snapshot —, or the error itself.
func errorPhase(msg string) string {
	switch {
	case strings.HasPrefix(msg, "decode: "):
		return "decode"
	case strings.HasPrefix(msg, "bms: batch"), strings.HasPrefix(msg, "fleet: batch"):
		return "batch"
	case strings.Contains(msg, "bms: install: "):
		return "install"
	}
	return msg
}

// TestFleetHandlerStatusParity pins the API-parity contract for error
// classes: an invalid report gets 400 through the fleet exactly as it
// would from one bms.Server (so retrying uplinks don't hammer a doomed
// request), and a fleet with no healthy shards answers 503.
func TestFleetHandlerStatusParity(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 2, 2, 100, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gateway := fleet.Handler(gw, fleet.HandlerOptions{Trainer: newServer(t, b)})
	ts := httptest.NewServer(gateway)
	defer ts.Close()

	// A report without a device is a client error on a single server;
	// it must be a client error through the fleet too.
	resp, err := http.Post(ts.URL+"/api/v1/observations", "application/json",
		bytes.NewReader([]byte(`{"atSeconds": 1, "beacons": []}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid report returned %s, want 400", resp.Status)
	}

	// Every body a JSON route can refuse — or an ingest route take as an
	// upload of nothing — is answered alike by one server and by the
	// gateway: the same status, from the same phase ("decode": the body
	// never parsed or went past the size limit; "batch": it parsed and the
	// upload was refused whole; "install": the snapshot does not fit its
	// model). The table is literal; its ingest rows are the ones the doors
	// answered by when each decoded into its own []transport.Report. A
	// standby gateway answers an upload that parses with 409 whatever is in
	// it — the lease gate stands between the decode and the identities —
	// and every other route as the leader does.
	one := newServer(t, b).Handler()
	idle, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	standby := fleet.Handler(idle, fleet.HandlerOptions{Trainer: newServer(t, b), Lease: controller(t, idle, "http://standby")})
	const single, batch = "/api/v1/observations", "/api/v1/observations:batch"
	const model, train, fingerprints = "/api/v1/model", "/api/v1/train", "/api/v1/fingerprints"
	const oversized = "a body announced past the size limit"
	const goodBeacon = `{"id":"B9407F30-F5F8-466E-AFF9-25556B57FE6D/1/2","distance":1,"rssi":-50}`
	snap := trainSnapshot(t, b, 7)
	goodSnap := string(mustJSON(t, snap))
	snap.Beacons = snap.Beacons[1:]
	shortSnap := string(mustJSON(t, snap))
	for _, c := range []struct {
		name, route, body string
		status            int
		phase             string
	}{
		{"trailing garbage", batch, `[{"device":"d1","atSeconds":1,"beacons":[]}] trailing-garbage`, 400, "decode"},
		{"trailing garbage", single, `{"device":"d1","atSeconds":1,"beacons":[]} trailing-garbage`, 400, "decode"},
		{"syntax error mid-array", batch, `[{"device":"d1","atSeconds":1,"beacons":[]},{]`, 400, "decode"},
		{"an object for the array", batch, `{"device":"d1","atSeconds":1,"beacons":[]}`, 400, "decode"},
		{"an array for the object", single, `[{"device":"d1","atSeconds":1,"beacons":[]}]`, 400, "decode"},
		{"a number for the device", batch, `[{"device":7,"atSeconds":1,"beacons":[]}]`, 400, "decode"},
		{"a number for a beacon id", batch, `[{"device":"d1","atSeconds":1,"beacons":[{"id":8}]}]`, 400, "decode"},
		{"a number for a beacon id", single, `{"device":"d1","atSeconds":1,"beacons":[{"id":8}]}`, 400, "decode"},
		{"bad id, first report", batch, `[{"device":"d1","atSeconds":1,"beacons":[{"id":"nope"}]},{"device":"d2","atSeconds":1,"beacons":[` + goodBeacon + `]}]`, 400, "batch"},
		{"bad id, last report", batch, `[{"device":"d1","atSeconds":1,"beacons":[` + goodBeacon + `]},{"device":"d2","atSeconds":1,"beacons":[` + goodBeacon + `,{"id":"B9407F30-F5F8-466E-AFF9-25556B57FE6D/1/70000"}]}]`, 400, "batch"},
		{"bad id", single, `{"device":"d1","atSeconds":1,"beacons":[{"id":"nope"}]}`, 400, "batch"},
		{"a beacon without id", batch, `[{"device":"d1","atSeconds":1,"beacons":[{"distance":1}]}]`, 400, "batch"},
		{"empty device", batch, `[{"device":"d1","atSeconds":1,"beacons":[]},{"device":"","atSeconds":1,"beacons":[]}]`, 400, "batch"},
		{"no device", single, `{"atSeconds":1,"beacons":[]}`, 400, "batch"},
		{"null", single, `null`, 400, "batch"},
		{"null", batch, `null`, 200, ""},
		{"no reports", batch, `[]`, 200, ""},
		{"trailing garbage", model, goodSnap + ` trailing-garbage`, 400, "decode"},
		{"a string for the beacons", model, `{"beacons":"b","model":{},"version":1}`, 400, "decode"},
		{oversized, model, goodSnap, 413, "decode"},
		{"a snapshot short of a beacon", model, shortSnap, 400, "install"},
		{"trailing garbage", train, `{"c":10} trailing-garbage`, 400, "decode"},
		{"a string for c", train, `{"c":"ten"}`, 400, "decode"},
		{oversized, train, `{"c":10}`, 413, "decode"},
		{"nothing to train on", train, `{"c":10}`, 409, "bms: no fingerprints collected"},
		{"trailing garbage", fingerprints, `{"room":"kitchen","distances":{}} trailing-garbage`, 400, "decode"},
		{"a number for the room", fingerprints, `{"room":7,"distances":{}}`, 400, "decode"},
		{oversized, fingerprints, `{"room":"kitchen","distances":{}}`, 413, "decode"},
		{"an unknown room", fingerprints, `{"room":"nowhere","distances":{}}`, 400, `bms: fingerprint labelled with unknown room "nowhere"`},
	} {
		for _, face := range []struct {
			name string
			h    http.Handler
		}{{"one server", one}, {"the gateway", gateway}, {"a standby gateway", standby}} {
			wantStatus, wantPhase := c.status, c.phase
			if face.h == standby && (c.route == single || c.route == batch) && c.phase != "decode" {
				wantStatus, wantPhase = http.StatusConflict, "gateway is standby, not leading"
			}
			method := http.MethodPost
			if c.route == model {
				method = http.MethodPut
			}
			req := httptest.NewRequest(method, c.route, strings.NewReader(c.body))
			if c.name == oversized {
				req.ContentLength = wire.MaxBodyBytes + 1
			}
			rec := httptest.NewRecorder()
			face.h.ServeHTTP(rec, req)
			var answer struct {
				Error string   `json:"error"`
				Rooms []string `json:"rooms"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil {
				t.Fatalf("%s, %s on %s: undecodable answer: %v", face.name, c.name, c.route, err)
			}
			if phase := errorPhase(answer.Error); rec.Code != wantStatus || phase != wantPhase {
				t.Errorf("%s answered %s on %s with %d from phase %q (%s), want %d from %q",
					face.name, c.name, c.route, rec.Code, phase, answer.Error, wantStatus, wantPhase)
			}
			if rec.Code == http.StatusOK && answer.Rooms == nil {
				t.Errorf("%s acknowledged %s without a rooms array", face.name, c.name)
			}
		}
	}
	if occ, err := gw.Occupancy(); err != nil || len(occ.Devices) != 0 {
		t.Fatalf("a rejected body was ingested: %v, %v", occ.Devices, err)
	}
	for i, srv := range pool.Servers {
		if _, ok := srv.ModelSnapshot(); ok {
			t.Fatalf("shard %d installed a snapshot the table refused", i)
		}
	}

	gw.MarkDown(0)
	gw.MarkDown(1)
	resp, err = http.Post(ts.URL+"/api/v1/observations", "application/json",
		bytes.NewReader([]byte(`{"device": "p", "atSeconds": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-healthy-shards returned %s, want 503", resp.Status)
	}
}

// TestFleetHandler exercises the gateway's own HTTP face: ingest,
// rollup, shard introspection, model distribution and training via the
// embedded trainer.
func TestFleetHandler(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 2, 2, 100, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	trainer := newServer(t, b)
	ts := httptest.NewServer(fleet.Handler(gw, fleet.HandlerOptions{Trainer: trainer}))
	defer ts.Close()

	// Health is live and green.
	resp, err := http.Get(ts.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
		Down   int    `json:"down"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Shards != 2 || health.Down != 0 {
		t.Fatalf("health = %+v", health)
	}

	// Collect fingerprints through the gateway, then train + distribute.
	snap := trainSnapshot(t, b, 31)
	body, _ := json.Marshal(snap)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/model", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model distribution returned %s", resp.Status)
	}

	// Batch ingest through the gateway API.
	stream := synthStream(b, 8, 40, 13)
	body, _ = json.Marshal(stream)
	resp, err = http.Post(ts.URL+"/api/v1/observations:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batchResp struct {
		Rooms []string `json:"rooms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batchResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batchResp.Rooms) != len(stream) {
		t.Fatalf("batch returned %d rooms, want %d", len(batchResp.Rooms), len(stream))
	}

	// One report through the single endpoint.
	body, _ = json.Marshal(stream[0])
	resp, err = http.Post(ts.URL+"/api/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single observation returned %s", resp.Status)
	}

	// Rollup reflects the crowd.
	resp, err = http.Get(ts.URL + "/api/v1/rollup")
	if err != nil {
		t.Fatal(err)
	}
	var rollup fleet.Rollup
	if err := json.NewDecoder(resp.Body).Decode(&rollup); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rollup.Devices != 8 {
		t.Fatalf("rollup devices = %d, want 8", rollup.Devices)
	}
	occupants := 0
	for _, r := range rollup.Rooms {
		occupants += r.Occupants
	}
	if occupants != 8 {
		t.Fatalf("rollup occupants = %d, want 8", occupants)
	}

	// Shard introspection accounts for every routed report.
	resp, err = http.Get(ts.URL + "/api/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var shardsResp struct {
		Shards []fleet.ShardStatus `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shardsResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	routed := int64(0)
	for _, s := range shardsResp.Shards {
		routed += s.Routed
	}
	if routed != int64(len(stream)+1) {
		t.Fatalf("routed = %d, want %d", routed, len(stream)+1)
	}

	// Training through the gateway distributes to every shard.
	resp, err = http.Post(ts.URL+"/api/v1/train", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The scratch trainer in this test has no fingerprints of its own,
	// so train must reject cleanly rather than distribute garbage.
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("train on empty trainer returned %s, want 409", resp.Status)
	}
}

package fleet_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/raceflag"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// plainFrame encodes reports as one wire frame, upload order.
func plainFrame(t testing.TB, reports []transport.Report) []byte {
	t.Helper()
	wb := new(wire.Batch)
	if err := transport.EncodeReports(wb, reports); err != nil {
		t.Fatal(err)
	}
	return wire.AppendFrame(nil, wb)
}

// ingestFrame delivers reports to a shard as the gateway does: rendered
// into one wire frame.
func ingestFrame(t testing.TB, s fleet.Shard, reports []transport.Report) ([]string, error) {
	t.Helper()
	return s.IngestFrame(plainFrame(t, reports), len(reports))
}

func postJSONBatch(t testing.TB, h http.Handler, reports []transport.Report) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, batchRoute, bytes.NewReader(mustJSON(t, reports))))
	return rec
}

// TestGatewayRejectsWholeUploadLikeOneServer: one clean server validates
// a whole upload before it ingests any of it, so a 16-device upload with
// one bad report is a 400 that changes nothing. A fleet must answer the
// same and hold the same — nothing, on every shard — through each door
// that reaches the server-side split. (Until PR 19 the bad report was
// found by the one shard it was sent to, after the other shards had
// committed their share of an upload the client was then told had
// failed.)
func TestGatewayRejectsWholeUploadLikeOneServer(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)
	clean := synthStream(b, 16, 1, 9)
	stampStream(clean, 1)
	faulty := func(fault string) []transport.Report {
		reports := slices.Clone(clean)
		badID := func(i int) {
			reports[i].Beacons = slices.Clone(reports[i].Beacons)
			reports[i].Beacons[1].ID = "not-a-beacon"
		}
		switch fault {
		case "unparseable beacon id":
			badID(7)
		case "bad id in the first report":
			badID(0)
		case "bad id in the last report":
			badID(len(reports) - 1)
		case "empty device":
			reports[7].Device = ""
		}
		return reports
	}
	identities := []string{"unparseable beacon id", "bad id in the first report", "bad id in the last report", "empty device"}
	// answer reads an HTTP face's reply: its status, and the phase its
	// error came from.
	answer := func(t *testing.T, rec *httptest.ResponseRecorder) (int, string) {
		var body struct {
			Error string `json:"error"`
		}
		if rec.Code == http.StatusOK {
			return rec.Code, ""
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("undecodable answer %q: %v", rec.Body, err)
		}
		return rec.Code, errorPhase(body.Error)
	}

	// A box is one server or a fleet behind its gateway, seen through the
	// doors both have; send answers with the status the door gave (the
	// in-process door's error is a 400 at either HTTP face) and the phase
	// the refusal came from — every fault here parses, so "batch" at every
	// door of either box.
	type box struct {
		face   http.Handler
		ingest func([]transport.Report) ([]string, error)
		gw     *fleet.Gateway // nil: one server, which takes no sections
	}
	doors := []struct {
		name   string
		faults []string
		send   func(t *testing.T, to box, reports []transport.Report) (int, string)
	}{
		{"json door", identities,
			func(t *testing.T, to box, reports []transport.Report) (int, string) {
				return answer(t, postJSONBatch(t, to.face, reports))
			}},
		// A frame carries identities in binary: only the device can be bad.
		{"plain frame door", []string{"empty device"},
			func(t *testing.T, to box, reports []transport.Report) (int, string) {
				return answer(t, postWire(t, to.face, plainFrame(t, reports), ""))
			}},
		// The pre-split door, under the gateway's own digest, with report 7
		// filed second — not first — in a section of a shard that does not
		// own it: a frame names a device once per run, so the forward pass
		// must still see the second report's own name. Faulty, it is the
		// nameless report and the upload is refused whole; clean, the
		// ownership check finds the stray and the gateway splits the upload
		// itself.
		{"pre-split door, filed second in another shard's section", []string{"empty device"},
			func(t *testing.T, to box, reports []transport.Report) (int, string) {
				if to.gw == nil {
					return answer(t, postWire(t, to.face, plainFrame(t, reports), ""))
				}
				secs := ringSections(t, to.gw, clean)
				for k := range secs {
					if at := slices.Index(secs[k].reports, 7); at >= 0 {
						secs[k].reports = slices.Delete(slices.Clone(secs[k].reports), at, at+1)
						other := &secs[(k+1)%len(secs)]
						other.reports = slices.Insert(slices.Clone(other.reports), 1, 7)
						break
					}
				}
				body, _ := sectionsBody(t, reports, secs)
				code, phase := answer(t, postWire(t, to.face, body, to.gw.RingDigest()))
				// The forward pass refuses the nameless report itself, before
				// any split; that it names this cause is the point here.
				if strings.HasPrefix(phase, "fleet: pre-split section") && strings.HasSuffix(phase, ": report without device") {
					phase = "batch"
				}
				return code, phase
			}},
		{"Gateway.IngestBatch", identities,
			func(t *testing.T, to box, reports []transport.Report) (int, string) {
				if _, err := to.ingest(reports); err != nil {
					return http.StatusBadRequest, errorPhase(err.Error())
				}
				return http.StatusOK, ""
			}},
	}
	for _, door := range doors {
		for _, fault := range door.faults {
			t.Run(door.name+"/"+fault, func(t *testing.T) {
				pool, err := fleet.OpenLocalPool(b, 4, 2, 200, "", store.FsyncBatch)
				if err != nil {
					t.Fatal(err)
				}
				gw, err := fleet.New(pool.Shards, fleet.Config{})
				if err != nil {
					t.Fatal(err)
				}
				met := obs.New()
				gw.Instrument(met)
				if err := gw.DistributeModel(snap); err != nil {
					t.Fatal(err)
				}
				single := newServer(t, b)
				if _, err := single.InstallModel(snap); err != nil {
					t.Fatal(err)
				}
				one := box{single.Handler(), single.IngestBatch, nil}
				all := box{fleet.Handler(gw, fleet.HandlerOptions{}), gw.IngestBatch, gw}

				want, phase := door.send(t, one, faulty(fault))
				if want != http.StatusBadRequest || phase != "batch" || len(single.KnownDevices()) != 0 {
					t.Fatalf("one server answered %d from phase %q and knows %v: the reference is not what the test assumes", want, phase, single.KnownDevices())
				}
				if got, gotPhase := door.send(t, all, faulty(fault)); got != want || gotPhase != phase {
					t.Errorf("the gateway answered %d from phase %q, one server %d from %q", got, gotPhase, want, phase)
				}
				for i, srv := range pool.Servers {
					if known := srv.KnownDevices(); len(known) != 0 {
						t.Errorf("shard %d ingested %v from an upload the client was told had failed", i, known)
					}
				}
				// Vacuity: the same upload without the fault is taken, and by
				// more than one shard.
				if got, _ := door.send(t, all, clean); got != http.StatusOK {
					t.Fatalf("the clean upload answered %d", got)
				}
				holding := 0
				for _, srv := range pool.Servers {
					if len(srv.KnownDevices()) > 0 {
						holding++
					}
				}
				if holding < 2 {
					t.Fatalf("the clean upload landed on %d shard(s): the rejected one was never split", holding)
				}
				counters := met.TakeSnapshot().Counters
				if strings.HasPrefix(door.name, "pre-split") && (counters["fleet_presplit_misroute_total"] != 1 || counters["fleet_presplit_forwarded_total"] != 0) {
					t.Errorf("%v misroutes and %v forwards of a clean upload with one report in another shard's section, want 1 and 0",
						counters["fleet_presplit_misroute_total"], counters["fleet_presplit_forwarded_total"])
				}
				for i, srv := range pool.Servers {
					for _, dev := range srv.KnownDevices() {
						if owner, err := gw.ShardFor(dev); err != nil || owner != i {
							t.Errorf("shard %d holds state for %s, which shard %d owns (%v)", i, dev, owner, err)
						}
					}
				}
			})
		}
	}
}

// TestNonFiniteReportRefused: JSON has no token for NaN or an infinity,
// so a binary upload may not carry one either — a report timed NaN was
// ingested and saturated to an event at -9223372036.85 s, one with NaN
// distances classified into a room. One server refuses the whole upload
// at its one check (wire.Batch.Check), a 400 or a rejected stream frame
// from its batch phase; a fleet must refuse it the same, at the gateway,
// before any shard sees a section — through every binary door, the
// pre-split forward among them.
func TestNonFiniteReportRefused(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)
	clean := synthStream(b, 16, 1, 9)
	stampStream(clean, 1)
	faults := map[string]func(r *transport.Report){
		"time NaN":      func(r *transport.Report) { r.AtSeconds = math.NaN() },
		"time +Inf":     func(r *transport.Report) { r.AtSeconds = math.Inf(1) },
		"distance NaN":  func(r *transport.Report) { r.Beacons[0].Distance = math.NaN() },
		"distance -Inf": func(r *transport.Report) { r.Beacons[len(r.Beacons)-1].Distance = math.Inf(-1) },
		"rssi +Inf":     func(r *transport.Report) { r.Beacons[0].RSSI = math.Inf(1) },
	}
	type box struct {
		face   http.Handler
		ingest func([]transport.Report) ([]string, error)
		gw     *fleet.Gateway // nil: one server
	}
	// phaseOf reads the refusal's phase; the forward pass names the
	// section it found the report in before the report.
	phaseOf := func(msg string) string {
		if strings.HasPrefix(msg, "fleet: pre-split section") && strings.HasSuffix(msg, "is not a finite number") {
			return "batch"
		}
		return errorPhase(msg)
	}
	answer := func(t *testing.T, rec *httptest.ResponseRecorder) (int, string) {
		var body struct {
			Error string `json:"error"`
		}
		if rec.Code == http.StatusOK {
			return rec.Code, ""
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("undecodable answer %q: %v", rec.Body, err)
		}
		return rec.Code, phaseOf(body.Error)
	}
	doors := []struct {
		name string
		send func(t *testing.T, to box, reports []transport.Report) (int, string)
	}{
		{"plain frame", func(t *testing.T, to box, reports []transport.Report) (int, string) {
			return answer(t, postWire(t, to.face, plainFrame(t, reports), ""))
		}},
		{"upload stream", func(t *testing.T, to box, reports []transport.Report) (int, string) {
			status, reason := streamExchange(t, to.face, wire.UplinkPath, wire.UplinkProtocol, wire.StreamFrame, plainFrame(t, reports))
			switch status {
			case wire.StreamOK:
				return http.StatusOK, ""
			case wire.StreamRejected:
				return http.StatusBadRequest, phaseOf(reason)
			}
			t.Fatalf("the stream answered status %d: %s", status, reason)
			return 0, ""
		}},
		// Under the gateway's own digest, each section the ring owner's:
		// without a check of its own the forward pass sends them verbatim.
		{"pre-split sections", func(t *testing.T, to box, reports []transport.Report) (int, string) {
			if to.gw == nil {
				return answer(t, postWire(t, to.face, plainFrame(t, reports), ""))
			}
			body, _ := presplitBody(t, to.gw, reports)
			return answer(t, postWire(t, to.face, body, to.gw.RingDigest()))
		}},
		{"IngestBatch", func(t *testing.T, to box, reports []transport.Report) (int, string) {
			if _, err := to.ingest(reports); err != nil {
				return http.StatusBadRequest, phaseOf(err.Error())
			}
			return http.StatusOK, ""
		}},
	}
	for _, door := range doors {
		for fault, spoil := range faults {
			t.Run(door.name+"/"+fault, func(t *testing.T) {
				pool, err := fleet.OpenLocalPool(b, 4, 2, 200, "", store.FsyncBatch)
				if err != nil {
					t.Fatal(err)
				}
				gw, err := fleet.New(pool.Shards, fleet.Config{})
				if err != nil {
					t.Fatal(err)
				}
				met := obs.New()
				gw.Instrument(met)
				if err := gw.DistributeModel(snap); err != nil {
					t.Fatal(err)
				}
				single := newServer(t, b)
				if _, err := single.InstallModel(snap); err != nil {
					t.Fatal(err)
				}
				one := box{single.Handler(), single.IngestBatch, nil}
				all := box{fleet.Handler(gw, fleet.HandlerOptions{}), gw.IngestBatch, gw}
				faulty := slices.Clone(clean)
				faulty[7].Beacons = slices.Clone(faulty[7].Beacons)
				spoil(&faulty[7])

				want, phase := door.send(t, one, faulty)
				if want != http.StatusBadRequest || phase != "batch" || len(single.KnownDevices()) != 0 {
					t.Fatalf("one server answered %d from phase %q and knows %v devices", want, phase, len(single.KnownDevices()))
				}
				if got, gotPhase := door.send(t, all, faulty); got != want || gotPhase != phase {
					t.Errorf("the gateway answered %d from phase %q, one server %d from %q", got, gotPhase, want, phase)
				}
				for i, srv := range pool.Servers {
					if known := srv.KnownDevices(); len(known) != 0 {
						t.Errorf("shard %d ingested %v from an upload the client was told had failed", i, known)
					}
				}
				// Vacuity: the same upload without the fault is taken, by
				// more than one shard, and on the pre-split door forwarded.
				if got, _ := door.send(t, all, clean); got != http.StatusOK {
					t.Fatalf("the clean upload answered %d", got)
				}
				holding := 0
				for _, srv := range pool.Servers {
					if len(srv.KnownDevices()) > 0 {
						holding++
					}
				}
				if holding < 2 {
					t.Fatalf("the clean upload landed on %d shard(s)", holding)
				}
				if forwarded := met.TakeSnapshot().Counters["fleet_presplit_forwarded_total"]; door.name == "pre-split sections" && forwarded != 1 {
					t.Fatalf("%v pre-split uploads forwarded, want the clean one", forwarded)
				}
			})
		}
	}
}

// streamExchange sends one request of kind, body as its body, on a stream
// h upgrades at path to protocol, and returns the reply's status and body.
func streamExchange(t *testing.T, h http.Handler, path, protocol string, kind byte, body []byte) (byte, string) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", protocol)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("the upgrade answered %v, %v", resp, err)
	}
	if _, err := conn.Write(wire.AppendStreamRequest(nil, kind, 0, body)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	status, reply, err := wire.ReadStreamReply(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return status, string(reply)
}

// TestServerSplitDoorsByteIdentity sends one stream into five fleets of
// durable shards, each through a different door — JSON batches, plain
// frames, pre-split sections under a stale digest, pre-split sections
// into a gateway whose skew window turns the forward off, and pre-split
// sections forwarded verbatim — and requires the doors to be
// indistinguishable afterwards: the same occupancy, events and dwell,
// and on every shard the same wal.log, byte for byte. The server-side
// split must cut the frames a device's own split would have.
func TestServerSplitDoorsByteIdentity(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)
	stream := synthStream(b, 12, 40, 9)
	stampStream(stream, 1)
	const chunk, shards = 36, 3
	uploads := float64((len(stream) + chunk - 1) / chunk)

	doors := []struct {
		name    string
		cfg     fleet.Config
		send    func(t *testing.T, gw *fleet.Gateway, face http.Handler, batch []transport.Report) int
		counter string // what must have counted every upload ("" for none)
	}{
		{"json", fleet.Config{}, func(t *testing.T, _ *fleet.Gateway, face http.Handler, batch []transport.Report) int {
			return postJSONBatch(t, face, batch).Code
		}, ""},
		{"plain frame", fleet.Config{}, func(t *testing.T, _ *fleet.Gateway, face http.Handler, batch []transport.Report) int {
			return postWire(t, face, plainFrame(t, batch), "").Code
		}, ""},
		{"stale digest", fleet.Config{}, func(t *testing.T, gw *fleet.Gateway, face http.Handler, batch []transport.Report) int {
			body, _ := presplitBody(t, gw, batch)
			return postWire(t, face, body, "stale-"+gw.RingDigest()).Code
		}, "fleet_presplit_digest_miss_total"},
		{"skew fallback", fleet.Config{SkewWindow: time.Hour}, func(t *testing.T, gw *fleet.Gateway, face http.Handler, batch []transport.Report) int {
			body, _ := presplitBody(t, gw, batch)
			return postWire(t, face, body, gw.RingDigest()).Code
		}, "fleet_presplit_skew_fallback_total"},
		{"pre-split", fleet.Config{}, func(t *testing.T, gw *fleet.Gateway, face http.Handler, batch []transport.Report) int {
			body, _ := presplitBody(t, gw, batch)
			return postWire(t, face, body, gw.RingDigest()).Code
		}, "fleet_presplit_forwarded_total"},
	}
	type outcome struct {
		occ, events, dwell []byte
		logs               [shards][]byte
	}
	var first outcome
	for n, door := range doors {
		dir := t.TempDir()
		pool, err := fleet.OpenLocalPool(b, shards, 2, 200, dir, store.FsyncOff)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		gw, err := fleet.New(pool.Shards, door.cfg)
		if err != nil {
			t.Fatal(err)
		}
		met := obs.New()
		gw.Instrument(met)
		if err := gw.DistributeModel(snap); err != nil {
			t.Fatal(err)
		}
		face := fleet.Handler(gw, fleet.HandlerOptions{})
		for i := 0; i < len(stream); i += chunk {
			if code := door.send(t, gw, face, stream[i:min(i+chunk, len(stream))]); code != http.StatusOK {
				t.Fatalf("%s door: upload at %d answered %d", door.name, i, code)
			}
		}
		counters := met.TakeSnapshot().Counters
		if door.counter != "" && counters[door.counter] != uploads {
			t.Fatalf("%s door: %s = %v after %v uploads — they did not take the door", door.name, door.counter, counters[door.counter], uploads)
		}
		if door.counter != "fleet_presplit_forwarded_total" && counters["fleet_presplit_forwarded_total"] != 0 {
			t.Fatalf("%s door: %v uploads were forwarded verbatim", door.name, counters["fleet_presplit_forwarded_total"])
		}
		var got outcome
		got.occ, got.events, got.dwell = fleetViews(t, gw)
		for s := range got.logs {
			if got.logs[s], err = os.ReadFile(filepath.Join(dir, pool.Shards[s].Name(), "wal.log")); err != nil {
				t.Fatal(err)
			}
			if len(got.logs[s]) == 0 {
				t.Fatalf("%s door: shard %d logged nothing", door.name, s)
			}
		}
		if n == 0 {
			first = got
			continue
		}
		if !bytes.Equal(got.occ, first.occ) || !bytes.Equal(got.events, first.events) || !bytes.Equal(got.dwell, first.dwell) {
			t.Errorf("the %s door's federated state differs from the %s door's", door.name, doors[0].name)
		}
		for s := range got.logs {
			if !bytes.Equal(got.logs[s], first.logs[s]) {
				t.Errorf("shard %d's wal.log differs between the %s door (%d bytes) and the %s door (%d bytes)",
					s, door.name, len(got.logs[s]), doors[0].name, len(first.logs[s]))
			}
		}
	}
}

// constShard answers every frame with the same rooms, allocating
// nothing, and keeps the last frame it was sent: what a pin over it
// counts is the gateway's own allocations. Only the ingest path may touch
// it: the embedded Shard is nil.
type constShard struct {
	fleet.Shard
	name  string
	rooms []string
	frame []byte
}

func (s *constShard) Name() string { return s.name }

func (s *constShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	s.frame = append(s.frame[:0], frame...)
	return s.rooms[:reports], nil
}

// stubGateway is a gateway over four constShards.
func stubGateway(t *testing.T) (*fleet.Gateway, []*constShard) {
	t.Helper()
	stay := make([]string, 64)
	for i := range stay {
		stay[i] = "kitchen"
	}
	shards := make([]*constShard, 4)
	ring := make([]fleet.Shard, len(shards))
	for i := range shards {
		shards[i] = &constShard{name: "shard-" + string(rune('0'+i)), rooms: stay}
		ring[i] = shards[i]
	}
	gw, err := fleet.New(ring, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return gw, shards
}

// reportsTaken counts the reports in the stub shards' last frames.
func reportsTaken(t *testing.T, shards []*constShard) int {
	t.Helper()
	taken := 0
	for _, s := range shards {
		wb := new(wire.Batch)
		if len(s.frame) > 0 {
			if err := wire.DecodeFrame(s.frame, wb); err != nil {
				t.Fatal(err)
			}
			taken += wb.Len()
		}
	}
	return taken
}

// TestAllocBudgetGatewaySplit: what the server-side split allocates does
// not depend on how many reports it cuts — the rooms it hands back, the
// fan-out's goroutines, and nothing per report: the batch, the map of the
// cut and the per-shard frames are all pooled.
func TestAllocBudgetGatewaySplit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	b := building.PaperHouse()
	gw, shards := stubGateway(t)
	batch := synthStream(b, 64, 1, 9) // 64 devices, one report each
	stampStream(batch, 1)
	cost := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			if rooms, err := gw.IngestBatch(batch[:n]); err != nil || len(rooms) != n {
				t.Fatalf("IngestBatch = %d rooms, %v", len(rooms), err)
			}
		})
	}
	few, many := cost(8), cost(64)
	if taken := reportsTaken(t, shards); taken != 64 {
		t.Fatalf("vacuous: the stub shards' last frames carry %d of the upload's 64 reports", taken)
	}
	t.Logf("Gateway.IngestBatch over 4 stub shards: %v allocations for 8 reports, %v for 64", few, many)
	// 56 more reports: anything allocated per report shows as 56 or more.
	// (Not equality: the count is the process's, and an earlier test's
	// connections may still be winding down beside the measurement.)
	if many-few >= 8 {
		t.Errorf("the split allocates %v times for 64 reports and %v for 8: something is allocated per report", many, few)
	}
	if many > 8 {
		t.Errorf("the split allocates %v times per upload, ceiling 8", many)
	}
}

// TestAllocBudgetJSONDoor: a JSON upload is decoded into a pooled target
// that makes no string — the device names are interned through the pooled
// batch, the beacon identities parsed where the decoder holds them — cut
// by the same split, and acknowledged from a pooled buffer: 64 reports of
// 64 devices cost the door what 8 cost it, and since the layout parse
// reads json.Marshal's bytes without encoding/json, 2 allocations in all
// (9 before it). (A door that built a []transport.Report paid 7 strings
// a report: 448 allocations an upload here.)
func TestAllocBudgetJSONDoor(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	gw, shards := stubGateway(t)
	face := fleet.Handler(gw, fleet.HandlerOptions{})
	batch := synthStream(building.PaperHouse(), 64, 1, 9) // 64 devices, one report each
	stampStream(batch, 1)
	post := func(h http.Handler, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, batchRoute, bytes.NewReader(body)))
		return rec.Code
	}
	// What the harness itself costs: the request, the recorder, and a
	// handler that drains the body and writes an ack of the same size.
	ack := bytes.Repeat([]byte(`"kitchen",`), 64)
	drain := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(ack)
	})
	cost := func(n int) float64 {
		body := mustJSON(t, batch[:n])
		ack = ack[:10*n]
		harness := testing.AllocsPerRun(100, func() { post(drain, body) })
		door := testing.AllocsPerRun(100, func() {
			if code := post(face, body); code != http.StatusOK {
				t.Fatalf("the gateway answered %d", code)
			}
		})
		return door - harness
	}
	few, many := cost(8), cost(64)
	if taken := reportsTaken(t, shards); taken != 64 {
		t.Fatalf("vacuous: the stub shards' last frames carry %d of the upload's 64 reports", taken)
	}
	t.Logf("the JSON batch route over 4 stub shards, above the harness: %v allocations for 8 reports, %v for 64", few, many)
	// 56 more reports: anything allocated per report shows as 56 or more.
	if many-few >= 8 {
		t.Errorf("the JSON door allocates %v times for 64 reports and %v for 8: something is allocated per report", many, few)
	}
	if many > 2 {
		t.Errorf("the JSON door allocates %v times per upload, ceiling 2", many)
	}
}

// TestAllocBudgetResplitDoor: a plain frame is decoded into a pooled
// batch and cut from it — no report slice, and no beacon identity
// rendered back into its "UUID/major/minor" string (two allocations a
// beacon, 176 an upload here, until PR 19) for the shard to parse again.
func TestAllocBudgetResplitDoor(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 4, 2, 200, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}
	face := fleet.Handler(gw, fleet.HandlerOptions{})

	// One device that stays put, 11 reports an upload, a fresh upload per
	// measured call (a retransmission would be deduplicated).
	const runs = 60
	stream := synthStream(b, 1, 29, 9)[:11]
	owner, err := gw.ShardFor(stream[0].Device)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	var batches []*wire.Batch
	seq := transport.NewSequencer(1)
	for i := 0; i < 2*(runs+1); i++ {
		batch := make([]transport.Report, len(stream))
		for k := range batch {
			batch[k] = stream[k]
			batch[k].AtSeconds += float64(60 * i)
			seq.Stamp(&batch[k])
		}
		bodies = append(bodies, plainFrame(t, batch))
		wb := new(wire.Batch)
		if err := wire.DecodeFrame(bodies[i], wb); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, wb)
	}
	next := 0
	ingest := testing.AllocsPerRun(runs, func() {
		if _, err := pool.Servers[owner].IngestWireBatch(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	drain := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = bytes.NewBuffer(nil).ReadFrom(r.Body) })
	harness := testing.AllocsPerRun(runs, func() { postWire(t, drain, bodies[0], "") })
	door := testing.AllocsPerRun(runs, func() {
		if rec := postWire(t, face, bodies[next], ""); rec.Code != http.StatusOK {
			t.Fatalf("gateway answered %d: %s", rec.Code, rec.Body)
		}
		next++
	})
	t.Logf("per 11-report plain-frame upload: shard ingest %v, gateway door %v above a harness of %v", ingest, door-harness, harness)
	if above := door - harness - ingest; above > 8 {
		t.Errorf("the plain-frame door allocates %v times per upload above the shard's ingest (%v) and the harness (%v), ceiling 8", above, ingest, harness)
	}
}

// TestPresplitBadRefRefusedWhole: the forward pass steps over beacons
// without reading an identity, but it counts the table, so a section one
// of whose beacons refers past it is refused with the whole upload before
// any section is forwarded — not by the one shard it would have reached,
// after the others had committed theirs. The plain frame door refuses the
// same frame the same way.
func TestPresplitBadRefRefusedWhole(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 4, 2, 200, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}
	face := fleet.Handler(gw, fleet.HandlerOptions{})
	clean := synthStream(b, 16, 1, 9)
	stampStream(clean, 1)
	secs := ringSections(t, gw, clean)
	if len(secs) < 2 {
		t.Fatalf("the upload has %d section(s); the test needs two", len(secs))
	}
	// The last section, rewritten: its first report, sighting one beacon by
	// a reference into an empty table.
	last := secs[len(secs)-1]
	device := clean[last.reports[0]].Device
	bad := binary.LittleEndian.AppendUint32(wire.BeginFrame(nil), 1)
	bad = append(binary.AppendUvarint(bad, uint64(len(device))), device...)
	bad = binary.LittleEndian.AppendUint64(bad, math.Float64bits(clean[last.reports[0]].AtSeconds))
	bad = append(append(bad, 1, 1, 1, 1), make([]byte, 16)...)
	wire.EndFrame(bad, 0)
	body, _ := sectionsBody(t, clean, secs[:len(secs)-1])
	body = append(wire.AppendSection(body, last.shard), bad...)

	for door, rec := range map[string]*httptest.ResponseRecorder{
		"pre-split": postWire(t, face, body, gw.RingDigest()),
		"plain":     postWire(t, face, bad, ""),
	} {
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "beacon reference past") {
			t.Errorf("%s door answered %d %s, want 400 naming the reference", door, rec.Code, rec.Body)
		}
	}
	for i, srv := range pool.Servers {
		if known := srv.KnownDevices(); len(known) != 0 {
			t.Errorf("shard %d ingested %v from an upload the client was told had failed", i, known)
		}
	}
	// Vacuity: the same sections, the last one as the device sent it.
	body, _ = sectionsBody(t, clean, secs)
	if rec := postWire(t, face, body, gw.RingDigest()); rec.Code != http.StatusOK {
		t.Fatalf("the clean upload answered %d: %s", rec.Code, rec.Body)
	}
}

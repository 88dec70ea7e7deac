package fleet_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/raceflag"
	"occusim/internal/ring"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

const batchRoute = "/api/v1/observations:batch"

// presplitBody splits reports by ring owner the way a ShardSplitter
// does (sections in shard-first-appearance order, a device's reports in
// order inside its section) and returns the upload body plus, per
// report of the body's order, its index in reports.
func presplitBody(t testing.TB, gw *fleet.Gateway, reports []transport.Report) (body []byte, order []int) {
	t.Helper()
	info := gw.RingInfo()
	r, err := ring.New(info.Shards, info.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	per := make([][]int, len(info.Shards))
	var shards []int
	for i := range reports {
		owner, err := r.Owner(reports[i].Device, info.Down)
		if err != nil {
			t.Fatal(err)
		}
		if per[owner] == nil {
			shards = append(shards, owner)
		}
		per[owner] = append(per[owner], i)
	}
	for _, owner := range shards {
		wb := new(wire.Batch)
		for _, i := range per[owner] {
			if err := transport.EncodeReports(wb, reports[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		body = wire.AppendFrame(wire.AppendSection(body, info.Shards[owner]), wb)
		order = append(order, per[owner]...)
	}
	return body, order
}

func postWire(t testing.TB, h http.Handler, body []byte, digest string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, batchRoute, bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	if digest != "" {
		req.Header.Set(wire.HeaderRingDigest, digest)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// ackRooms decodes a 200 wire ack of n reports.
func ackRooms(t testing.TB, rec *httptest.ResponseRecorder, n int) []string {
	t.Helper()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != wire.ContentType {
		t.Fatalf("upload answered %d as %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	rd := wire.Reader{Buf: rec.Body.Bytes()}
	rooms := rd.Rooms(n, nil, wire.Interner{})
	if rd.Short || len(rooms) != n {
		t.Fatalf("ack % x decodes to %d rooms (short=%v), want %d", rec.Body.Bytes(), len(rooms), rd.Short, n)
	}
	return rooms
}

// httpFleet fronts one fresh server per codec with an HTTPShard speaking
// that codec, behind one gateway running snap. wrap, when non-nil, sits
// in front of shard i's handler.
func httpFleet(t *testing.T, b *building.Building, snap bms.ModelSnapshot, codecs []transport.Codec,
	wrap func(i int, next http.Handler) http.Handler) *fleet.Gateway {
	t.Helper()
	shards := make([]fleet.Shard, len(codecs))
	for i, codec := range codecs {
		h := newServer(t, b).Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		hs.SetCodec(codec)
		shards[i] = hs
	}
	gw, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}
	return gw
}

// uploadPath renders batch as upload n's wire body: device pre-split
// under the live digest, pre-split under a stale one (re-split
// server-side, in section order), or one plain frame (upload order).
// order maps the body's report positions to indices in batch.
func uploadPath(t *testing.T, gw *fleet.Gateway, batch []transport.Report, n int) (body []byte, digest string, order []int) {
	t.Helper()
	body, order = presplitBody(t, gw, batch)
	digest = gw.RingDigest()
	switch n % 3 {
	case 1:
		digest = "stale-" + digest
	case 2:
		wb := new(wire.Batch)
		if err := transport.EncodeReports(wb, batch); err != nil {
			t.Fatal(err)
		}
		body, digest = wire.AppendFrame(nil, wb), ""
		for k := range order {
			order[k] = k
		}
	}
	return body, digest, order
}

// TestShard415IsAFaultNotADowngrade: the gateway-to-shard leg speaks the
// codec it was configured with. A shard that answers 415 to it is a
// deployment fault: every gateway path — verbatim forward, stale-digest
// re-split, plain frame — answers 502 (ErrShardMisbehaved), and the
// shard is never quietly re-sent the batch as JSON.
func TestShard415IsAFaultNotADowngrade(t *testing.T) {
	b := building.PaperHouse()
	var wireOffers, jsonBatches atomic.Int64
	gw := httpFleet(t, b, trainSnapshot(t, b, 42), []transport.Codec{transport.CodecBinary, transport.CodecBinary},
		func(_ int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Header.Get("Content-Type") == wire.ContentType:
					wireOffers.Add(1)
					http.Error(w, `{"error":"unsupported media type"}`, http.StatusUnsupportedMediaType)
					return
				case r.URL.Path == batchRoute:
					jsonBatches.Add(1)
				}
				next.ServeHTTP(w, r)
			})
		})
	face := fleet.Handler(gw, fleet.HandlerOptions{})

	stream := synthStream(b, 12, 6, 9)
	stampStream(stream, 1)
	if _, err := gw.IngestBatch(stream); !errors.Is(err, fleet.ErrShardMisbehaved) {
		t.Fatalf("IngestBatch over a 415 shard: %v, want ErrShardMisbehaved", err)
	}
	for n := 0; n < 3; n++ {
		body, digest, _ := uploadPath(t, gw, stream, n)
		offered := wireOffers.Load()
		rec := postWire(t, face, body, digest)
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("path %d answered %d, want 502: %s", n, rec.Code, rec.Body)
		}
		if wireOffers.Load() == offered {
			t.Fatalf("path %d: vacuous, no shard was offered the wire codec", n)
		}
	}
	if jsonBatches.Load() != 0 {
		t.Fatalf("a shard that refused the wire codec was re-sent %d JSON batches", jsonBatches.Load())
	}
	if occ, err := gw.Occupancy(); err != nil || len(occ.Devices) != 0 {
		t.Fatalf("refused uploads left state behind: %v, %v", occ.Devices, err)
	}
}

// TestUnencodableReportIsAClientError: a beacon identity the binary leg
// cannot carry is one the shard's JSON face rejects with the same
// parser, so the gateway answers what one server answers — 400 — under
// either codec, without an exchange on the binary leg.
func TestUnencodableReportIsAClientError(t *testing.T) {
	b := building.PaperHouse()
	var batches atomic.Int64
	gw := httpFleet(t, b, trainSnapshot(t, b, 42), []transport.Codec{transport.CodecBinary},
		func(_ int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == batchRoute {
					batches.Add(1)
				}
				next.ServeHTTP(w, r)
			})
		})
	body := `[{"device":"d1","atSeconds":1,"beacons":[{"id":"not-a-beacon","distance":1}]}]`
	for name, h := range map[string]http.Handler{
		"one server":  newServer(t, b).Handler(),
		"the gateway": fleet.Handler(gw, fleet.HandlerOptions{}),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, batchRoute, strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s answered %d to an unparseable beacon identity, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	if batches.Load() != 0 {
		t.Errorf("the binary leg made %d exchanges for a batch it cannot encode", batches.Load())
	}
}

// TestMixedCodecShardsByteIdentity: the codec is per shard client, so a
// fleet may run one JSON leg beside one binary leg. Devices upload in
// binary on every gateway path, and the federated state — and each ack,
// report for report — is what one clean server produces.
func TestMixedCodecShardsByteIdentity(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)
	single := newServer(t, b)
	if _, err := single.InstallModel(snap); err != nil {
		t.Fatal(err)
	}
	var wireTo, jsonTo [2]atomic.Int64
	gw := httpFleet(t, b, snap, []transport.Codec{transport.CodecJSON, transport.CodecBinary},
		func(i int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == batchRoute {
					if r.Header.Get("Content-Type") == wire.ContentType {
						wireTo[i].Add(1)
					} else {
						jsonTo[i].Add(1)
					}
				}
				next.ServeHTTP(w, r)
			})
		})
	face := fleet.Handler(gw, fleet.HandlerOptions{})

	stream := synthStream(b, 12, 40, 9)
	stampStream(stream, 1)
	const chunk = 36
	for n, i := 0, 0; i < len(stream); n, i = n+1, i+chunk {
		batch := stream[i:min(i+chunk, len(stream))]
		want, err := single.IngestBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		body, digest, order := uploadPath(t, gw, batch, n)
		got := ackRooms(t, postWire(t, face, body, digest), len(batch))
		for k, i := range order {
			if got[k] != want[i] {
				t.Fatalf("upload %d (path %d): ack room %d is %q, one clean server predicts %q for report %d", n, n%3, k, got[k], want[i], i)
			}
		}
	}
	// Pre-split sections are forwarded as the frames they are, whatever
	// the leg's codec; the server-side split speaks the configured one.
	if jsonTo[0].Load() == 0 || wireTo[1].Load() == 0 || jsonTo[1].Load() != 0 {
		t.Fatalf("vacuous: JSON shard took %d JSON / %d wire batches, binary shard %d / %d",
			jsonTo[0].Load(), wireTo[0].Load(), jsonTo[1].Load(), wireTo[1].Load())
	}
	occ, events, dwell := fleetViews(t, gw)
	if !bytes.Equal(occ, mustJSON(t, single.Occupancy())) || !bytes.Equal(events, mustJSON(t, single.Events())) ||
		!bytes.Equal(dwell, mustJSON(t, single.DwellTotals())) {
		t.Fatal("the mixed-codec fleet's federated state differs from one clean server's")
	}
}

// TestJSONUploadKeepsJSONAck: the rule is per request — a JSON batch to
// the same gateway is answered in JSON, as before.
func TestJSONUploadKeepsJSONAck(t *testing.T) {
	b := building.PaperHouse()
	s := newWireStack(t, b, 2, 42)
	stream := synthStream(b, 4, 3, 9)
	stampStream(stream, 1)
	resp, err := http.Post(s.ts.URL+batchRoute, "application/json", bytes.NewReader(mustJSON(t, stream)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack struct {
		Rooms []string `json:"rooms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK || len(ack.Rooms) != len(stream) {
		t.Fatalf("JSON upload answered %d, %d rooms for %d reports (%v)", resp.StatusCode, len(ack.Rooms), len(stream), err)
	}
}

// TestGatewayOversizedUploadIs413: neither gateway face buffers a body
// past wire.MaxBodyBytes; nothing of it reaches a shard.
func TestGatewayOversizedUploadIs413(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.NewLocalPool(b, 2, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	face := fleet.Handler(gw, fleet.HandlerOptions{})
	for name, tc := range map[string]struct {
		contentType string
		announced   bool
	}{
		"wire, announced": {wire.ContentType, true},
		"wire, chunked":   {wire.ContentType, false},
		"json, chunked":   {"application/json", false},
	} {
		var read int64
		// Blanks: to a JSON decoder, a value that has not started yet.
		body := io.LimitReader(readerFunc(func(p []byte) (int, error) {
			for i := range p {
				p[i] = ' '
			}
			read += int64(len(p))
			return len(p), nil
		}), wire.MaxBodyBytes+4096)
		req := httptest.NewRequest(http.MethodPost, batchRoute, body)
		req.Header.Set("Content-Type", tc.contentType)
		req.Header.Set(wire.HeaderRingDigest, gw.RingDigest())
		req.ContentLength = -1
		if tc.announced {
			req.ContentLength = wire.MaxBodyBytes + 4096
		}
		rec := httptest.NewRecorder()
		face.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "error") {
			t.Errorf("%s: answered %d %q, want 413 with a JSON error", name, rec.Code, rec.Body)
		}
		if tc.announced && read != 0 {
			t.Errorf("%s: read %d bytes of a body announced over the limit", name, read)
		}
	}
	for i, srv := range pool.Servers {
		if occ := srv.Occupancy(); len(occ.Devices) != 0 {
			t.Fatalf("shard %d ingested %v from an oversized upload", i, occ.Devices)
		}
	}
	for i := 0; i < 8; i++ {
		if buf := wire.GetBuf(); cap(*buf) > 1<<20 {
			t.Fatalf("the buffer pool holds a %d-byte buffer after the oversized uploads", cap(*buf))
		}
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// The allocation budget of the gateway (PERF.md "What changed
// (PR 13)"); `make allocs` runs these.

func TestAllocBudgetForward(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)
	pool, err := fleet.NewLocalPool(b, 4, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}
	face := fleet.Handler(gw, fleet.HandlerOptions{})
	digest := gw.RingDigest()

	// One device that stays put, 11 reports an upload, a fresh upload per
	// measured call (a retransmission would be deduplicated).
	const runs = 60
	stream := synthStream(b, 1, 29, 9)[:11] // one dwell: the device does not move
	owner, err := gw.ShardFor(stream[0].Device)
	if err != nil {
		t.Fatal(err)
	}
	direct := pool.Servers[owner]
	var bodies [][]byte
	var frames [][]fleet.PresplitSection
	var batches []*wire.Batch
	seq := transport.NewSequencer(1)
	for i := 0; i < 3*(runs+1); i++ {
		batch := make([]transport.Report, len(stream))
		for k := range batch {
			batch[k] = stream[k]
			batch[k].AtSeconds += float64(60 * i)
			seq.Stamp(&batch[k])
		}
		body, _ := presplitBody(t, gw, batch)
		bodies = append(bodies, body)
		var secs []fleet.PresplitSection
		if err := wire.ScanSections(body, func(shard, frame, payload []byte) error {
			secs = append(secs, fleet.PresplitSection{Shard: string(shard), Frame: frame, Payload: payload})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, secs)
		wb := new(wire.Batch)
		if err := wire.DecodeFrame(secs[0].Frame, wb); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, wb)
	}
	next := 0

	// The shard's own share, through the same public entry the LocalShard
	// uses minus the decode: what the forward is measured above.
	ingest := testing.AllocsPerRun(runs, func() {
		if _, err := direct.IngestWireBatch(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	forward := testing.AllocsPerRun(runs, func() {
		if _, err := gw.IngestPresplit(digest, frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if forward-ingest > 2 {
		t.Errorf("IngestPresplit over a LocalShard allocates %v times per upload, %v for the shard's ingest alone; budget 2 above it", forward, ingest)
	}

	drain := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = io.Copy(io.Discard, r.Body) })
	harness := testing.AllocsPerRun(runs, func() { postWire(t, drain, bodies[0], digest) })
	handler := testing.AllocsPerRun(runs, func() {
		if rec := postWire(t, face, bodies[next], digest); rec.Code != http.StatusOK {
			t.Fatalf("gateway answered %d: %s", rec.Code, rec.Body)
		}
		next++
	})
	t.Logf("per 11-report upload: shard ingest %v, IngestPresplit %v, gateway wire handler %v above a harness of %v",
		ingest, forward, handler-harness, harness)
	if handler-harness > 10 {
		t.Errorf("the gateway's wire handler allocates %v times per upload (harness %v), ceiling 10", handler-harness, harness)
	}
}

// ackRT answers every request with one preallocated 200 wire ack, so a
// pin over it counts the caller's allocations, not a server's.
type ackRT struct {
	ack  []byte
	rd   bytes.Reader
	resp http.Response
}

func (rt *ackRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	rt.rd.Reset(rt.ack)
	rt.resp = http.Response{StatusCode: http.StatusOK, Status: "200 OK", Body: io.NopCloser(&rt.rd),
		ContentLength: int64(len(rt.ack)), Request: req}
	return &rt.resp, nil
}

// TestAllocBudgetHTTPShardIngestFrame: the gateway's half of the shard
// exchange is the request (3, pinned in transport) plus the rooms slice
// it hands back — the ack is read through a pooled buffer into interned
// names.
func TestAllocBudgetHTTPShardIngestFrame(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	stay := make([]string, 11)
	for i := range stay {
		stay[i] = "kitchen"
	}
	rt := &ackRT{ack: wire.AppendRooms(nil, stay)}
	client := &http.Client{Transport: rt}
	hs, err := fleet.NewHTTPShard("http://shard-0.test", client, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	hs.StampEpoch(7)
	frame := bytes.Repeat([]byte{0xab}, 2600) // the stub does not decode it

	var rd bytes.Reader
	req, err := http.NewRequest(http.MethodPost, "http://shard-0.test"+batchRoute, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set(transport.HeaderGatewayEpoch, "7")
	req.Body, req.ContentLength = io.NopCloser(&rd), int64(len(frame))
	clientDo := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	})
	ingest := testing.AllocsPerRun(100, func() {
		rooms, err := hs.IngestFrame(frame, len(stay))
		if err != nil || len(rooms) != len(stay) || rooms[10] != "kitchen" {
			t.Fatalf("IngestFrame = %q, %v", rooms, err)
		}
	})
	if ours := ingest - clientDo; ours > 4 {
		t.Errorf("HTTPShard.IngestFrame allocates %v times outside Client.Do (%v with it), budget 4", ours, ingest)
	}
}

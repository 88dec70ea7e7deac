package fleet_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/raceflag"
	"occusim/internal/ring"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

const batchRoute = "/api/v1/observations:batch"

// section is one shard's share of a pre-split upload: the name the
// section carries and the indices of its reports, in order.
type section struct {
	shard   string
	reports []int
}

// ringSections splits reports by ring owner the way a pre-splitting
// binary HTTPUplink does: sections in shard-first-appearance order, a
// device's reports in order inside its section.
func ringSections(t testing.TB, gw *fleet.Gateway, reports []transport.Report) []section {
	t.Helper()
	info := gw.RingInfo()
	r, err := ring.New(info.Shards, info.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	at := make([]int, len(info.Shards)) // 1 + the owner's section index
	var secs []section
	for i := range reports {
		owner, err := r.Owner(reports[i].Device, info.Down)
		if err != nil {
			t.Fatal(err)
		}
		if at[owner] == 0 {
			secs = append(secs, section{shard: info.Shards[owner]})
			at[owner] = len(secs)
		}
		secs[at[owner]-1].reports = append(secs[at[owner]-1].reports, i)
	}
	return secs
}

// sectionsBody renders the sections as an upload body and returns, per
// report of the body's order, its index in reports.
func sectionsBody(t testing.TB, reports []transport.Report, secs []section) (body []byte, order []int) {
	t.Helper()
	for _, sec := range secs {
		wb := new(wire.Batch)
		for _, i := range sec.reports {
			if err := transport.EncodeReports(wb, reports[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		body = wire.AppendFrame(wire.AppendSection(body, sec.shard), wb)
		order = append(order, sec.reports...)
	}
	return body, order
}

// presplitBody is the upload an honest pre-splitting uplink sends for
// reports.
func presplitBody(t testing.TB, gw *fleet.Gateway, reports []transport.Report) (body []byte, order []int) {
	t.Helper()
	return sectionsBody(t, reports, ringSections(t, gw, reports))
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

// httpFleet fronts n fresh servers — each on its own registry — with an
// HTTPShard each, behind one gateway running snap. wrap, when non-nil,
// sits in front of shard i's handler.
func httpFleet(t *testing.T, b *building.Building, snap bms.ModelSnapshot, n int,
	wrap func(i int, next http.Handler) http.Handler) (*fleet.Gateway, []*bms.Server) {
	t.Helper()
	shards := make([]fleet.Shard, n)
	servers := make([]*bms.Server, n)
	for i := range shards {
		servers[i] = newServer(t, b)
		servers[i].Instrument(obs.New())
		t.Cleanup(func() { servers[i].Close() })
		h := servers[i].Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = hs
	}
	gw, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}
	return gw, servers
}

// streamFrames is how many frames the server has taken off gateway
// streams.
func streamFrames(srv *bms.Server) float64 {
	return srv.Metrics().TakeSnapshot().Counters["bms_stream_frames_total"]
}

// uploadPath renders batch as upload n's wire body: device pre-split
// under the live digest, pre-split under a stale one (re-split
// server-side, in section order), or one plain frame (upload order).
// order maps the body's report positions to indices in batch.
func uploadPath(t testing.TB, gw *fleet.Gateway, batch []transport.Report, n int) (body []byte, digest string, order []int) {
	t.Helper()
	body, order = presplitBody(t, gw, batch)
	digest = gw.RingDigest()
	switch n % 3 {
	case 1:
		digest = "stale-" + digest
	case 2:
		body, digest = plainFrame(t, batch), ""
		for k := range order {
			order[k] = k
		}
	}
	return body, digest, order
}

// TestRefusedUpgradeIsAFaultNotADowngrade: wire frames reach a shard over
// its stream and no other way. A shard that refuses the upgrade — one
// that predates the route, say — is a deployment fault: every gateway
// path — verbatim forward, stale-digest re-split, plain frame, JSON batch
// — answers 502 (ErrShardMisbehaved), and the shard is never quietly sent
// the batch by POST instead.
func TestRefusedUpgradeIsAFaultNotADowngrade(t *testing.T) {
	b := building.PaperHouse()
	var upgradeOffers, batchPosts atomic.Int64
	gw, _ := httpFleet(t, b, trainSnapshot(t, b, 42), 2,
		func(_ int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case wire.StreamPath:
					upgradeOffers.Add(1)
					http.Error(w, `{"error":"no such route"}`, http.StatusNotFound)
					return
				case batchRoute:
					batchPosts.Add(1)
				}
				next.ServeHTTP(w, r)
			})
		})
	face := fleet.Handler(gw, fleet.HandlerOptions{})

	stream := synthStream(b, 12, 6, 9)
	stampStream(stream, 1)
	if _, err := gw.IngestBatch(stream); !errors.Is(err, fleet.ErrShardMisbehaved) {
		t.Fatalf("IngestBatch over a shard that refuses the upgrade: %v, want ErrShardMisbehaved", err)
	}
	for n := 0; n < 3; n++ {
		body, digest, _ := uploadPath(t, gw, stream, n)
		offered := upgradeOffers.Load()
		rec := postWire(t, face, body, digest)
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("path %d answered %d, want 502: %s", n, rec.Code, rec.Body)
		}
		if upgradeOffers.Load() == offered {
			t.Fatalf("path %d: vacuous, no shard was asked to upgrade", n)
		}
	}
	if rec := postJSONBatch(t, face, stream); rec.Code != http.StatusBadGateway {
		t.Fatalf("the JSON door answered %d, want 502: %s", rec.Code, rec.Body)
	}
	if batchPosts.Load() != 0 {
		t.Fatalf("a shard that refused the stream was sent %d batches by POST", batchPosts.Load())
	}
	if occ, err := gw.Occupancy(); err != nil || len(occ.Devices) != 0 {
		t.Fatalf("refused uploads left state behind: %v, %v", occ.Devices, err)
	}
}

// TestUnencodableReportIsAClientError: a beacon identity a frame cannot
// carry is one a single server's JSON face rejects with the same parser,
// so the gateway answers what one server answers — 400 — without an
// exchange on the internal leg.
func TestUnencodableReportIsAClientError(t *testing.T) {
	b := building.PaperHouse()
	var batches atomic.Int64
	gw, _ := httpFleet(t, b, trainSnapshot(t, b, 42), 1,
		func(_ int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == batchRoute || r.URL.Path == wire.StreamPath {
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
		t.Errorf("the internal leg made %d exchanges for a batch no frame can carry", batches.Load())
	}
}

// TestMixedCodecShardsByteIdentity: the device leg's codec is per upload
// and the internal leg has none to choose — a crowd that mixes JSON
// batches, plain frames, pre-split sections and stale pre-split sections
// against a fleet of remote shards reaches every shard as frames on its
// stream and by no POST, and the federated state — and each ack, report
// for report — is what one clean server produces.
func TestMixedCodecShardsByteIdentity(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)
	single := newServer(t, b)
	if _, err := single.InstallModel(snap); err != nil {
		t.Fatal(err)
	}
	var batchPosts atomic.Int64
	gw, servers := httpFleet(t, b, snap, 2, func(i int, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == batchRoute {
				batchPosts.Add(1)
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
		var got []string
		order := make([]int, len(batch))
		for k := range order {
			order[k] = k
		}
		if n%4 == 3 {
			rec := postJSONBatch(t, face, batch)
			var ack struct {
				Rooms []string `json:"rooms"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("upload %d (JSON) answered %d: %s (%v)", n, rec.Code, rec.Body, err)
			}
			got = ack.Rooms
		} else {
			var body []byte
			var digest string
			body, digest, order = uploadPath(t, gw, batch, n%4)
			got = ackRooms(t, postWire(t, face, body, digest), len(batch))
		}
		if len(got) != len(batch) {
			t.Fatalf("upload %d (path %d): %d rooms for %d reports", n, n%4, len(got), len(batch))
		}
		for k, i := range order {
			if got[k] != want[i] {
				t.Fatalf("upload %d (path %d): ack room %d is %q, one clean server predicts %q for report %d", n, n%4, k, got[k], want[i], i)
			}
		}
	}
	if streamFrames(servers[0]) == 0 || streamFrames(servers[1]) == 0 || batchPosts.Load() != 0 {
		t.Fatalf("vacuous: the shards took %v and %v stream frames and %d batch POSTs",
			streamFrames(servers[0]), streamFrames(servers[1]), batchPosts.Load())
	}
	occ, events, dwell := fleetViews(t, gw)
	if !bytes.Equal(occ, mustJSON(t, single.Occupancy())) || !bytes.Equal(events, mustJSON(t, single.Events())) ||
		!bytes.Equal(dwell, mustJSON(t, single.DwellTotals())) {
		t.Fatal("the mixed-codec crowd's federated state differs from one clean server's")
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
	pool, err := fleet.OpenLocalPool(b, 2, 2, 200, "", store.FsyncBatch)
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
	pool, err := fleet.OpenLocalPool(b, 4, 2, 200, "", store.FsyncBatch)
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

// stubShardRT upgrades every dial onto an in-memory pipe whose far end
// answers each envelope with one canned ok reply, allocating nothing —
// so a pin over it counts the gateway's allocations, not a shard's.
type stubShardRT struct {
	t     testing.TB
	reply []byte
}

func (rt *stubShardRT) RoundTrip(req *http.Request) (*http.Response, error) {
	gw, shard := net.Pipe()
	rt.t.Cleanup(func() { gw.Close() })
	go func() {
		defer shard.Close()
		br := bufio.NewReaderSize(shard, 4096)
		var buf []byte
		for {
			if _, _, err := wire.ReadStreamRequest(br, &buf); err != nil {
				return
			}
			if _, err := shard.Write(rt.reply); err != nil {
				return
			}
		}
	}()
	return &http.Response{
		StatusCode: http.StatusSwitchingProtocols, Status: "101 Switching Protocols",
		Header: http.Header{"Upgrade": {wire.StreamProtocol}}, Body: gw, Request: req,
	}, nil
}

// TestAllocBudgetHTTPShardIngestFrame: one warm exchange costs the
// gateway the rooms slice it hands back and at most one allocation more —
// the envelope is built in, and the reply read through, buffers the
// stream keeps; the deadline is a timer re-armed, not made.
func TestAllocBudgetHTTPShardIngestFrame(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	stay := make([]string, 11)
	for i := range stay {
		stay[i] = "kitchen"
	}
	reply := wire.AppendRooms(wire.BeginStreamReply(nil, wire.StreamOK), stay)
	wire.EndStreamReply(reply)
	frame := bytes.Repeat([]byte{0xab}, 2600) // the stub does not decode it
	for name, client := range map[string]*http.Client{
		"no deadline":      {Transport: &stubShardRT{t: t, reply: reply}},
		"attempt deadline": {Transport: &stubShardRT{t: t, reply: reply}, Timeout: time.Minute},
	} {
		hs, err := fleet.NewHTTPShard("http://shard-0.test", client, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		hs.StampEpoch(7)
		ingest := testing.AllocsPerRun(100, func() {
			rooms, err := hs.IngestFrame(frame, len(stay))
			if err != nil || len(rooms) != len(stay) || rooms[10] != "kitchen" {
				t.Fatalf("IngestFrame = %q, %v", rooms, err)
			}
		})
		t.Logf("%s: %v allocations per warm exchange", name, ingest)
		if ingest > 2 {
			t.Errorf("%s: HTTPShard.IngestFrame allocates %v times per warm exchange, budget 2", name, ingest)
		}
	}
}

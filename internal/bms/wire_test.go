package bms

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"occusim/internal/building"
	"occusim/internal/raceflag"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// deviceBatch is the paper's upload — 11 reports of one device, every
// beacon of the house ranged — as reports and as the wire frame of them.
// The device moves to the next beacon every dwell reports.
func deviceBatch(t testing.TB, b *building.Building, device string, firstSeq uint64, dwell int) ([]transport.Report, []byte) {
	t.Helper()
	reports := make([]transport.Report, 11)
	for i := range reports {
		reports[i] = reportNear(b, device, (i/dwell)%len(b.Beacons), float64(2*(int(firstSeq)+i)))
		reports[i].Epoch, reports[i].Seq = 1, firstSeq+uint64(i)
	}
	wb := new(wire.Batch)
	if err := transport.EncodeReports(wb, reports); err != nil {
		t.Fatal(err)
	}
	return reports, wire.AppendFrame(nil, wb)
}

func postBatch(h http.Handler, contentType string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/api/v1/observations:batch", body)
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestWireRequestGetsWireAck: the 200 body of a wire-codec upload is the
// run-length rooms column, report for report what the same reports get
// as JSON; a JSON upload is still answered in JSON, and an error keeps
// its JSON body whatever the request's codec.
func TestWireRequestGetsWireAck(t *testing.T) {
	s, b := newTestServer(t)
	twin, _ := newTestServer(t)
	h := s.Handler()
	reports, frame := deviceBatch(t, b, "phone-1", 1, 4)

	rec := postBatch(h, wire.ContentType, bytes.NewReader(frame))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != wire.ContentType {
		t.Fatalf("wire upload answered %d as %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	rd := wire.Reader{Buf: rec.Body.Bytes()}
	got := rd.Rooms(len(reports), nil, wire.Interner{})
	if rd.Short {
		t.Fatalf("malformed ack % x", rec.Body.Bytes())
	}

	rec = postBatch(twin.Handler(), "application/json", bytes.NewReader(mustJSON(t, reports)))
	var want struct {
		Rooms []string `json:"rooms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &want); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("JSON upload answered %d (%v): %s", rec.Code, err, rec.Body)
	}
	if !reflect.DeepEqual(got, want.Rooms) || len(got) != len(reports) {
		t.Fatalf("wire ack %q, JSON ack %q", got, want.Rooms)
	}
	frame[len(frame)-1] ^= 0xff // break the checksum
	rec = postBatch(h, wire.ContentType, bytes.NewReader(frame))
	var fail struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fail); rec.Code != http.StatusBadRequest || err != nil || fail.Error == "" {
		t.Fatalf("damaged frame answered %d %q (%v)", rec.Code, rec.Body, err)
	}
}

// zeroBody is an endless body of zeros that counts what was read of it.
type zeroBody struct{ read int64 }

func (z *zeroBody) Read(p []byte) (int, error) {
	clear(p)
	z.read += int64(len(p))
	return len(p), nil
}

// TestOversizedUploadIs413: no ingest face buffers a body past
// wire.MaxBodyBytes. An announced length over the limit is refused
// unread; an unannounced (chunked) one is cut off at the limit. Nothing
// is ingested, and the buffer pool is left holding nothing that large.
func TestOversizedUploadIs413(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	for name, tc := range map[string]struct {
		contentType string
		announced   bool
	}{
		"wire, announced":   {wire.ContentType, true},
		"wire, chunked":     {wire.ContentType, false},
		"json, chunked":     {"application/json", false},
		"json, announced":   {"application/json", true},
		"single, announced": {"", true},
	} {
		body := &zeroBody{}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/observations:batch", io.LimitReader(body, wire.MaxBodyBytes+4096))
		if tc.contentType == "" {
			req = httptest.NewRequest(http.MethodPost, "/api/v1/observations", io.LimitReader(body, wire.MaxBodyBytes+4096))
		} else {
			req.Header.Set("Content-Type", tc.contentType)
		}
		req.ContentLength = -1
		if tc.announced {
			req.ContentLength = wire.MaxBodyBytes + 4096
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: answered %d, want 413: %s", name, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "error") {
			t.Errorf("%s: the 413 has no JSON error body: %s", name, rec.Body)
		}
		if tc.announced && tc.contentType == wire.ContentType && body.read != 0 {
			t.Errorf("%s: read %d bytes of a body announced over the limit", name, body.read)
		}
		if body.read > wire.MaxBodyBytes+4096 {
			t.Errorf("%s: read %d bytes, past the limit", name, body.read)
		}
	}
	if occ := s.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("an oversized upload ingested devices %v", occ.Devices)
	}
	// JSON and wire bodies are read into the one pool.
	for i := 0; i < 8; i++ {
		if buf := wire.GetBuf(); cap(*buf) > 1<<20 {
			t.Fatalf("the buffer pool holds a %d-byte buffer after the oversized uploads", cap(*buf))
		}
	}
}

// TestIngestWireSlabIsPerDeviceRun pins what the store is handed: the
// beacons of one device's consecutive reports share an array, another
// device's do not, and no observation can append into its neighbour.
func TestIngestWireSlabIsPerDeviceRun(t *testing.T) {
	_, b := newTestServer(t)
	wb := new(wire.Batch)
	var all []transport.Report
	for _, device := range []string{"a", "a", "b", "a"} {
		all = append(all, reportNear(b, device, 0, float64(len(all))))
	}
	all = append(all, transport.Report{Device: "a", AtSeconds: 9}) // no beacons
	if err := transport.EncodeReports(wb, all); err != nil {
		t.Fatal(err)
	}
	sc := getScratch()
	defer sc.release()
	sc.size(wb.Len())
	wireObservations(wb, sc.obs)
	for i, o := range sc.obs {
		if want := len(all[i].Beacons); len(o.Beacons) != want || cap(o.Beacons) != want {
			t.Fatalf("observation %d: len %d cap %d, want both %d", i, len(o.Beacons), cap(o.Beacons), want)
		}
		for k, bd := range o.Beacons {
			if bd != wb.ReportBeacons(i)[k] {
				t.Fatalf("observation %d beacon %d = %v, the frame says %v", i, k, bd, wb.ReportBeacons(i)[k])
			}
		}
	}
	n := len(all[0].Beacons)
	end := unsafe.Add(unsafe.Pointer(&sc.obs[0].Beacons[0]), n*int(unsafe.Sizeof(wire.Beacon{})))
	if end != unsafe.Pointer(&sc.obs[1].Beacons[0]) {
		t.Fatal("two consecutive reports of one device are not carved from one slab")
	}
	// One slab per run — a·a, b, a·a — not one per batch: a device's
	// retention must not pin another's.
	if !raceflag.Enabled {
		if slabs := testing.AllocsPerRun(10, func() { wireObservations(wb, sc.obs) }); slabs != 3 {
			t.Fatalf("wireObservations made %v slabs for 3 device runs", slabs)
		}
	}
	if sc.obs[4].Beacons != nil {
		t.Fatalf("a beacon-less report got %v", sc.obs[4].Beacons)
	}
}

// The allocation budget of the shard (CHANGES.md, the PR 13 line);
// `make allocs` runs these.

func TestAllocBudgetIngestWire(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	s, b := newTestServer(t)
	trainServer(t, s, b)
	h := s.Handler()

	// Fresh reports every run (a retransmission would be deduplicated and
	// skip the store), all built before the measured calls.
	const runs = 60
	var frames [][]byte
	var batches []*wire.Batch
	for i := 0; i < 2*(runs+1); i++ {
		_, frame := deviceBatch(t, b, "phone-1", uint64(1+11*i), 1<<20) // stays put, as devices mostly do
		wb := new(wire.Batch)
		if err := wire.DecodeFrame(frame, wb); err != nil {
			t.Fatal(err)
		}
		frames, batches = append(frames, frame), append(batches, wb)
	}
	next := 0

	// The core on the caller's scratch: the beacon slab, the store's
	// fresh column, and the amortised growth of what store and tracker
	// keep.
	sc := getScratch()
	defer sc.release()
	ingest := testing.AllocsPerRun(runs, func() {
		if _, err := s.ingest(0, batches[next], nil, sc); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if ingest > 4 {
		t.Errorf("ingest allocates %v times per 11-report batch, budget 4", ingest)
	}

	// The whole handler, above what the harness itself costs: the
	// request, the recorder, and a handler that only drains the body.
	drain := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = io.Copy(io.Discard, r.Body) })
	harness := testing.AllocsPerRun(runs, func() { postBatch(drain, wire.ContentType, bytes.NewReader(frames[0])) })
	handler := testing.AllocsPerRun(runs, func() {
		if rec := postBatch(h, wire.ContentType, bytes.NewReader(frames[next])); rec.Code != http.StatusOK {
			t.Fatalf("handler answered %d: %s", rec.Code, rec.Body)
		}
		next++
	})
	t.Logf("per 11-report batch: ingest %v, wire handler %v above a harness of %v", ingest, handler-harness, harness)
	if handler-harness > 9 {
		t.Errorf("the wire handler allocates %v times per 11-report batch (harness %v), ceiling 9", handler-harness, harness)
	}

	// A durable server takes the WAL guard around every commit, shared
	// for an upload and exclusive for a sweep; the guard adds nothing.
	d, _ := openDurable(t, t.TempDir(), store.FsyncOff)
	defer d.Close()
	guard := testing.AllocsPerRun(runs, func() {
		d.hold(false)
		d.release(false)
		d.hold(true)
		d.release(true)
	})
	if guard != 0 {
		t.Errorf("the durable WAL guard allocates %v times per commit, want 0", guard)
	}
}

// TestAllocBudgetIngestBatchJSON: the JSON door is the core plus a
// pooled re-encode, so it costs what the wire door costs — the same
// caller-facing rooms copy included — whatever the batch size. A gap
// that opens, or grows with the batch, is the JSON door growing its own
// path again.
func TestAllocBudgetIngestBatchJSON(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	s, b := newTestServer(t)
	trainServer(t, s, b)
	const runs = 40
	gap := func(size int) float64 {
		// One device that stays put; fresh sequence numbers every call (a
		// retransmission would be deduplicated and skip the store).
		var reports [][]transport.Report
		var batches []*wire.Batch
		for i := 0; i < 2*(runs+1); i++ {
			batch := make([]transport.Report, size)
			for k := range batch {
				seq := uint64(1 + i*size + k)
				batch[k] = sequenced(reportNear(b, "phone-"+strconv.Itoa(size), 0, float64(2*seq)), seq)
			}
			wb := new(wire.Batch)
			if err := transport.EncodeReports(wb, batch); err != nil {
				t.Fatal(err)
			}
			reports, batches = append(reports, batch), append(batches, wb)
		}
		next := 0
		viaWire := testing.AllocsPerRun(runs, func() {
			if _, err := s.IngestWireBatch(batches[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		viaJSON := testing.AllocsPerRun(runs, func() {
			if _, err := s.IngestBatch(reports[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("%d-report batch: IngestBatch %v allocations, IngestWireBatch %v", size, viaJSON, viaWire)
		return viaJSON - viaWire
	}
	small, large := gap(1), gap(64)
	if small > 1 || large > 1 {
		t.Errorf("IngestBatch allocates %v (1 report) and %v (64 reports) times above IngestWireBatch, budget 1", small, large)
	}
}

// TestAllocBudgetJSONDoor: the JSON batch route is the wire route plus a
// decode that makes no string — not a device name, not a beacon identity —
// and an ack appended into a pooled buffer, so what it allocates above the
// wire route for the same 64 devices' reports is what it allocates above
// it for 8: nothing, since the layout parse reads json.Marshal's bytes
// into the pooled target without encoding/json's per-call state (7 an
// upload before it). (A door that built a []transport.Report paid 7
// strings a report, 448 an upload here.)
func TestAllocBudgetJSONDoor(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	s, b := newTestServer(t)
	trainServer(t, s, b)
	h := s.Handler()
	const runs = 30
	gap := func(size int) float64 {
		// size devices, one report each, under fresh sequence numbers every
		// upload (a retransmission would be deduplicated and skip the store).
		// The first warm uploads carry every device's history past the
		// store's retention (100), where it next grows a hundred uploads on:
		// until then each doubling is size allocations in one upload, on
		// whichever route happens to be measured at the time.
		const warm = 130
		var bodies, frames [][]byte
		for i := 0; i < warm+2*(runs+1); i++ {
			batch := make([]transport.Report, size)
			for k := range batch {
				seq := uint64(1 + i)
				batch[k] = sequenced(reportNear(b, "door"+strconv.Itoa(size)+"-"+strconv.Itoa(k), 0, float64(2*seq)), seq)
			}
			body, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			wb := new(wire.Batch)
			if err := transport.EncodeReports(wb, batch); err != nil {
				t.Fatal(err)
			}
			bodies, frames = append(bodies, body), append(frames, wire.AppendFrame(nil, wb))
		}
		next := 0
		for ; next < warm; next++ {
			if rec := postBatch(h, wire.ContentType, bytes.NewReader(frames[next])); rec.Code != http.StatusOK {
				t.Fatalf("warm-up upload answered %d: %s", rec.Code, rec.Body)
			}
		}
		post := func(contentType string, uploads [][]byte) float64 {
			return testing.AllocsPerRun(runs, func() {
				if rec := postBatch(h, contentType, bytes.NewReader(uploads[next])); rec.Code != http.StatusOK {
					t.Fatalf("%s upload answered %d: %s", contentType, rec.Code, rec.Body)
				}
				next++
			})
		}
		viaWire := post(wire.ContentType, frames)
		viaJSON := post("application/json", bodies)
		t.Logf("%d-report upload: JSON route %v allocations, wire route %v", size, viaJSON, viaWire)
		return viaJSON - viaWire
	}
	few, many := gap(8), gap(64)
	// 56 more reports: anything allocated per report shows as 56 or more.
	if many-few >= 8 {
		t.Errorf("the JSON route allocates %v times above the wire route for 64 reports and %v for 8: something is allocated per report", many, few)
	}
	if few > 0 || many > 0 {
		t.Errorf("the JSON route allocates %v times above the wire route for 8 reports and %v for 64, ceiling 0", few, many)
	}
}

// TestMalformedFrameRefusedWhole: a frame the batch grammar does not admit
// — a beacon referring past its payload's identity table, forward or to
// itself —, one whose first report has no name, and one under the version
// byte this form replaced are each refused as a whole upload at both of
// the shard's frame doors: 400 with the reason over HTTP, StreamRejected
// on the stream, nothing applied and nothing logged.
func TestMalformedFrameRefusedWhole(t *testing.T) {
	s, b := openDurable(t, t.TempDir(), store.FsyncOff)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	_, good := deviceBatch(t, b, "phone-1", 1, 4)

	// One report of "phone-1" with the given beacon bytes behind its head.
	framed := func(name string, beacons int, body ...byte) []byte {
		f := binary.LittleEndian.AppendUint32(wire.BeginFrame(nil), 1)
		f = append(binary.AppendUvarint(f, uint64(len(name))), name...)
		f = binary.LittleEndian.AppendUint64(f, math.Float64bits(2))
		f = append(append(f, 1, 1, byte(beacons)), body...)
		wire.EndFrame(f, 0)
		return f
	}
	floats := make([]byte, 16)
	literal := append(make([]byte, 1+20), floats...)
	replaced := bytes.Clone(good)
	replaced[0] = 0x01
	cases := []struct {
		name, reason string
		frame        []byte
	}{
		{"a reference into an empty table", "beacon reference past", framed("phone-1", 1, append([]byte{1}, floats...)...)},
		{"a reference to itself", "beacon reference past", framed("phone-1", 2, append(bytes.Clone(literal), append([]byte{2}, floats...)...)...)},
		{"a forward reference", "beacon reference past", framed("phone-1", 2, append(append([]byte{2}, floats...), literal...)...)},
		{"a first report without a name", "device", framed("", 0)},
		{"the replaced frame version", "unknown frame version 0x01", replaced},
	}

	conn, br, resp := upgradeStream(t, ts)
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %s", resp.Status)
	}
	defer conn.Close()
	overStream := func(frame []byte) (byte, []byte) {
		t.Helper()
		if _, err := conn.Write(wire.AppendStreamRequest(nil, wire.StreamFrame, 0, frame)); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		status, body, err := wire.ReadStreamReply(br, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return status, bytes.Clone(body)
	}
	for _, c := range cases {
		rec := postBatch(s.Handler(), wire.ContentType, bytes.NewReader(c.frame))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.reason) {
			t.Errorf("%s: the HTTP door answered %d %s, want 400 naming %q", c.name, rec.Code, rec.Body, c.reason)
		}
		if status, body := overStream(c.frame); status != wire.StreamRejected || !strings.Contains(string(body), c.reason) {
			t.Errorf("%s: the stream answered status %d %q, want rejected naming %q", c.name, status, body, c.reason)
		}
		if known, logged := s.KnownDevices(), s.WALSize(); len(known) != 0 || logged != 0 {
			t.Errorf("%s: a refused frame left devices %v and %d log bytes", c.name, known, logged)
		}
	}
	// Vacuity: the doors take the frame the cases were cut from.
	if status, body := overStream(good); status != wire.StreamOK || s.WALSize() == 0 || len(s.KnownDevices()) != 1 {
		t.Fatalf("the well-formed frame got status %d %q, %d log bytes, devices %v", status, body, s.WALSize(), s.KnownDevices())
	}
}

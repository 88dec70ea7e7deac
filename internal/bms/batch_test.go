package bms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"occusim/internal/building"
	"occusim/internal/obs"
	"occusim/internal/transport"
)

// TestIngestBatchMatchesSequentialIngest pins the batch path's
// semantics: a batch must predict the same rooms and leave the server in
// the same observable state (store contents, occupancy, events) as
// feeding the reports one at a time.
func TestIngestBatchMatchesSequentialIngest(t *testing.T) {
	b := building.PaperHouse()
	var reports []transport.Report
	for i := 0; i < 30; i++ {
		device := fmt.Sprintf("phone-%d", i%3)
		reports = append(reports, reportNear(b, device, i%len(b.Beacons), float64(10+i)))
	}

	single, _ := newTestServer(t)
	var wantRooms []string
	for _, r := range reports {
		room, err := single.Ingest(r)
		if err != nil {
			t.Fatal(err)
		}
		wantRooms = append(wantRooms, room)
	}

	batched, _ := newTestServer(t)
	gotRooms, err := batched.IngestBatch(reports)
	if err != nil {
		t.Fatal(err)
	}

	if len(gotRooms) != len(wantRooms) {
		t.Fatalf("rooms: got %d, want %d", len(gotRooms), len(wantRooms))
	}
	for i := range gotRooms {
		if gotRooms[i] != wantRooms[i] {
			t.Fatalf("report %d: batch predicted %q, sequential %q", i, gotRooms[i], wantRooms[i])
		}
	}
	sa, sb := single.Occupancy(), batched.Occupancy()
	if len(sa.Rooms) != len(sb.Rooms) || len(sa.Devices) != len(sb.Devices) {
		t.Fatalf("occupancy diverged: %+v vs %+v", sa, sb)
	}
	for room, n := range sa.Rooms {
		if sb.Rooms[room] != n {
			t.Fatalf("room %q: batch count %d, sequential %d", room, sb.Rooms[room], n)
		}
	}
	ea, eb := single.Events(), batched.Events()
	if len(ea) != len(eb) {
		t.Fatalf("events: batch %d, sequential %d", len(eb), len(ea))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// TestIngestBatchRejectsWholeBatch pins atomic validation: one malformed
// report rejects the batch before anything lands in the store.
func TestIngestBatchRejectsWholeBatch(t *testing.T) {
	s, b := newTestServer(t)
	reports := []transport.Report{
		reportNear(b, "good", 0, 1),
		{Device: "", AtSeconds: 2}, // missing device
	}
	if _, err := s.IngestBatch(reports); err == nil {
		t.Fatal("batch with a malformed report should fail")
	}
	if _, ok := s.st.Latest("good"); ok {
		t.Fatal("rejected batch leaked an observation into the store")
	}
	if len(s.Events()) != 0 {
		t.Fatal("rejected batch committed occupancy events")
	}
}

// TestIngestBatchEmpty pins the trivial cases.
func TestIngestBatchEmpty(t *testing.T) {
	s, _ := newTestServer(t)
	rooms, err := s.IngestBatch(nil)
	if err != nil || rooms != nil {
		t.Fatalf("empty batch: rooms %v, err %v", rooms, err)
	}
}

// TestObservationsBatchEndpoint drives the REST batch path end to end.
func TestObservationsBatchEndpoint(t *testing.T) {
	s, b := newTestServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	reports := []transport.Report{
		reportNear(b, "phone-a", 0, 1),
		reportNear(b, "phone-b", 1, 1),
		reportNear(b, "phone-a", 0, 3),
	}
	up := &transport.HTTPUplink{BaseURL: srv.URL}
	if err := up.SendBatch(reports); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Post(srv.URL+"/api/v1/observations:batch", "application/json",
		bytes.NewReader(mustJSON(t, reports)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Rooms []string `json:"rooms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rooms) != len(reports) {
		t.Fatalf("rooms = %v, want one per report", out.Rooms)
	}
	if room := b.Beacons[0].Room; out.Rooms[0] != room {
		t.Fatalf("first report placed in %q, want %q", out.Rooms[0], room)
	}

	// Malformed batches are rejected with 400.
	bad, err := srv.Client().Post(srv.URL+"/api/v1/observations:batch", "application/json",
		bytes.NewReader([]byte(`[{"device":""}]`)))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("malformed batch returned %d, want 400", bad.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConcurrentIngest exercises the striped report path from many
// goroutines (run under -race in CI): per-device report streams ingest
// concurrently, single and batched, while readers poll occupancy.
func TestConcurrentIngest(t *testing.T) {
	s, b := newTestServer(t)
	const devices = 8
	const perDevice = 40
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			name := fmt.Sprintf("phone-%d", d)
			if d%2 == 0 {
				var batch []transport.Report
				for i := 0; i < perDevice; i++ {
					batch = append(batch, reportNear(b, name, d%len(b.Beacons), float64(i)))
				}
				if _, err := s.IngestBatch(batch); err != nil {
					t.Error(err)
				}
				return
			}
			for i := 0; i < perDevice; i++ {
				if _, err := s.Ingest(reportNear(b, name, d%len(b.Beacons), float64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(d)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.Occupancy()
			_ = s.Events()
		}
	}()
	wg.Wait()

	snap := s.Occupancy()
	if len(snap.Devices) != devices {
		t.Fatalf("tracked %d devices, want %d", len(snap.Devices), devices)
	}
}

// TestIngestTelemetryCountsSingleReportsAsBatches: every door is the one
// core, so bms_ingest_batch_size sees a single report as a batch of 1.
func TestIngestTelemetryCountsSingleReportsAsBatches(t *testing.T) {
	s, b := newTestServer(t)
	m := obs.New()
	s.Instrument(m)
	for i := 0; i < 3; i++ {
		if _, err := s.Ingest(reportNear(b, "phone", 0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/observations",
		bytes.NewReader(mustJSON(t, reportNear(b, "phone", 0, 3)))))
	if rec.Code != 200 {
		t.Fatalf("single-report route answered %d: %s", rec.Code, rec.Body)
	}
	batch := []transport.Report{reportNear(b, "phone", 0, 4), reportNear(b, "tablet", 1, 4), reportNear(b, "phone", 0, 5)}
	if _, err := s.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	snap := m.TakeSnapshot()
	if h := snap.Histograms["bms_ingest_batch_size"]; h.Count != 5 || h.Sum != 7 {
		t.Errorf("bms_ingest_batch_size saw %d batches of %d reports in all, want 5 of 7", h.Count, h.Sum)
	}
	if h := snap.Histograms["bms_ingest_seconds"]; h.Count != 5 {
		t.Errorf("bms_ingest_seconds timed %d ingests, want 5", h.Count)
	}
}

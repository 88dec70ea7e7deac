package bms

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// seqReport fabricates a sequenced report beside one beacon.
func seqReport(b *building.Building, device string, beaconIdx int, atSeconds float64, seq uint64) transport.Report {
	rep := reportNear(b, device, beaconIdx, atSeconds)
	rep.Seq = seq
	return rep
}

// TestIngestDedupsRetransmission pins the server half of exactly-once
// on the single-report path: a retransmitted sequenced report is
// acknowledged with the same predicted room but advances neither the
// debounce nor the store.
func TestIngestDedupsRetransmission(t *testing.T) {
	s, b := newTestServer(t)
	rep := seqReport(b, "p", 0, 1, 1)
	room1, err := s.Ingest(rep)
	if err != nil {
		t.Fatal(err)
	}
	events := len(s.Events())
	room2, err := s.Ingest(rep) // lost ack, client retransmits
	if err != nil {
		t.Fatalf("retransmission must be acknowledged, got %v", err)
	}
	if room2 != room1 {
		t.Fatalf("retransmission predicted %q, original %q", room2, room1)
	}
	if got := len(s.Events()); got != events {
		t.Fatalf("retransmission committed %d new events", got-events)
	}
	if got := len(history(s.st, "p")); got != 1 {
		t.Fatalf("retransmission stored a duplicate observation: history = %d", got)
	}
}

// TestIngestBatchDebounceNotDoubleAdvanced is the ROADMAP bug made a
// regression test: with debounce 2, delivering a one-observation batch
// twice (whole-batch retransmit after a lost ack) must NOT count as
// two consecutive observations and commit the transition early.
func TestIngestBatchDebounceNotDoubleAdvanced(t *testing.T) {
	b := building.PaperHouse()
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(b, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := []transport.Report{seqReport(b, "p", 0, 1, 1)}
	if _, err := s.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestBatch(batch); err != nil { // retransmit
		t.Fatal(err)
	}
	if evs := s.Events(); len(evs) != 0 {
		t.Fatalf("duplicate delivery advanced debounce and committed %v", evs)
	}
	// The genuine second observation commits.
	if _, err := s.IngestBatch([]transport.Report{seqReport(b, "p", 0, 3, 2)}); err != nil {
		t.Fatal(err)
	}
	if evs := s.Events(); len(evs) != 1 {
		t.Fatalf("genuine confirmation did not commit: events = %v", evs)
	}
}

// TestEvictInstallDeviceRoundTrip pins the in-process migration
// surface: evicting a device and installing it on a second server
// moves room, debounce, dwell and the dedup mark; the old server
// forgets the device entirely.
func TestEvictInstallDeviceRoundTrip(t *testing.T) {
	s1, b := newTestServer(t)
	for i := uint64(1); i <= 3; i++ {
		if _, err := s1.Ingest(seqReport(b, "p", 0, float64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	wantRoom := s1.tracker.RoomOf("p")
	wantState, _ := s1.tracker.Export("p")
	wantDwell := wantState.Dwell

	st, ok := evict(t, s1, "p")
	if !ok {
		t.Fatal("evict found no state")
	}
	if st.Epoch != 0 || st.Seq != 3 {
		t.Fatalf("evicted mark = (%d, %d), want (0, 3)", st.Epoch, st.Seq)
	}
	if occ := s1.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("old owner still reports %v", occ.Devices)
	}
	if _, ok := evict(t, s1, "p"); ok {
		t.Fatal("second evict found state again")
	}

	s2, _ := newTestServer(t)
	if err := s2.InstallDevice(0, st); err != nil {
		t.Fatal(err)
	}
	if got := s2.tracker.RoomOf("p"); got != wantRoom {
		t.Fatalf("migrated room = %q, want %q", got, wantRoom)
	}
	if got, _ := s2.tracker.Export("p"); len(got.Dwell) != len(wantDwell) {
		t.Fatalf("migrated dwell = %v, want %v", got.Dwell, wantDwell)
	}
	// The mark travelled: the in-flight retransmission of seq 3 is a
	// no-op on the new owner.
	evs := len(s2.Events())
	if _, err := s2.Ingest(seqReport(b, "p", 0, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Events()); got != evs {
		t.Fatal("retransmission ingested on the new owner despite the migrated mark")
	}
}

// TestDeviceMigrationEndpoints drives the HTTP face of migration:
// evict answers the state (404 for an unknown device), install seeds a
// second server, expire sweeps idle devices.
func TestDeviceMigrationEndpoints(t *testing.T) {
	s1, b := newTestServer(t)
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	s2, _ := newTestServer(t)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	if _, err := s1.Ingest(seqReport(b, "p", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}

	// The read-only state view answers without disturbing anything.
	resp0, err := http.Get(ts1.URL + "/api/v1/devices/p/state")
	if err != nil {
		t.Fatal(err)
	}
	var peek DeviceState
	if err := json.NewDecoder(resp0.Body).Decode(&peek); err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if peek.Device != "p" || peek.Seq != 1 {
		t.Fatalf("state peek = %+v", peek)
	}
	if occ := s1.Occupancy(); len(occ.Devices) != 1 {
		t.Fatal("read-only state view mutated the server")
	}

	// Unknown device evicts to 404.
	resp, err := http.Post(ts1.URL+"/api/v1/devices:evict", "application/json",
		bytes.NewReader([]byte(`{"device":"ghost"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evict of unknown device returned %s, want 404", resp.Status)
	}

	// Evict p over HTTP and install it on the second server.
	resp, err = http.Post(ts1.URL+"/api/v1/devices:evict", "application/json",
		bytes.NewReader([]byte(`{"device":"p"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var st DeviceState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Device != "p" || st.Seq != 1 {
		t.Fatalf("evicted state = %+v", st)
	}
	body, _ := json.Marshal(st)
	resp, err = http.Post(ts2.URL+"/api/v1/devices:install", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install returned %s", resp.Status)
	}
	if got := s2.tracker.RoomOf("p"); got == "" {
		t.Fatal("installed device unknown on the second server")
	}

	// Expire sweeps it back out (cutoff after its only observation).
	cutoff := int64(10 * time.Second)
	resp, err = http.Post(ts2.URL+"/api/v1/devices:expire", "application/json",
		bytes.NewReader([]byte(`{"beforeNanos":`+jsonInt(cutoff)+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	var sweep struct {
		Expired []string `json:"expired"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sweep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sweep.Expired) != 1 || sweep.Expired[0] != "p" {
		t.Fatalf("expired = %v, want [p]", sweep.Expired)
	}
	if occ := s2.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("expired device still tracked: %v", occ.Devices)
	}
	// Expiry must NOT reopen the dedup window: a late retransmission of
	// the committed seq-1 report stays a no-op.
	events := len(s2.Events())
	if _, err := s2.Ingest(seqReport(b, "p", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Events()); got != events {
		t.Fatal("retransmission after TTL expiry was re-ingested — the high-water mark was dropped with the state")
	}
	if occ := s2.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("deduped retransmission resurrected the device: %v", occ.Devices)
	}
	// A genuine device restart re-enters through an epoch bump.
	rep := seqReport(b, "p", 0, 100, 1)
	rep.Epoch = 1
	if _, err := s2.Ingest(rep); err != nil {
		t.Fatal(err)
	}
	if occ := s2.Occupancy(); len(occ.Devices) != 1 {
		t.Fatalf("epoch-bumped restart did not re-enter: %v", occ.Devices)
	}
}

// jsonInt renders an int64 for a hand-rolled JSON body.
func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

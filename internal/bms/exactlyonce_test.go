package bms

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
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

// TestDeviceMigrationEndpoints drives the served faces of migration: the
// HTTP state view, then on the shard stream an export that answers the
// state (empty for an unknown device), an install that seeds a second
// server, an evict whose retry answers the same empty ok, and an expiry
// that sweeps idle devices.
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

	// Migration rides the shard stream: export from the first server,
	// install on the second, evict from the first. An unknown device
	// exports to an empty ok reply.
	conn1, br1, _ := upgradeStream(t, ts1)
	conn2, br2, _ := upgradeStream(t, ts2)
	if status, reply := shardCall(t, conn1, br1, wire.StreamExport, 0, []byte("ghost")); status != wire.StreamOK || len(reply) != 0 {
		t.Fatalf("export of unknown device answered status %d %q, want ok and empty", status, reply)
	}
	status, reply := shardCall(t, conn1, br1, wire.StreamExport, 0, []byte("p"))
	var st DeviceState
	if err := json.Unmarshal(reply, &st); status != wire.StreamOK || err != nil {
		t.Fatalf("export answered status %d %q (%v)", status, reply, err)
	}
	if st.Device != "p" || st.Seq != 1 {
		t.Fatalf("exported state = %+v", st)
	}
	if status, reply := shardCall(t, conn2, br2, wire.StreamInstall, 0, reply); status != wire.StreamOK || len(reply) != 0 {
		t.Fatalf("install answered status %d %q", status, reply)
	}
	// The evict answers an empty ok, and so does its retry, which finds
	// nothing held: the state is already on the new owner.
	for _, attempt := range []string{"evict", "retried evict"} {
		if status, reply := shardCall(t, conn1, br1, wire.StreamEvict, 0, []byte("p")); status != wire.StreamOK || len(reply) != 0 {
			t.Fatalf("%s answered status %d %q, want ok and empty", attempt, status, reply)
		}
	}
	if known := s1.KnownDevices(); len(known) != 0 {
		t.Fatalf("the first server still holds %v after the evict", known)
	}
	for _, kind := range []byte{wire.StreamExport, wire.StreamEvict} {
		if status, reason := shardCall(t, conn1, br1, kind, 0, nil); status != wire.StreamRejected {
			t.Fatalf("kind 0x%02x without a device answered status %d %q, want rejected", kind, status, reason)
		}
	}
	if got := s2.tracker.RoomOf("p"); got == "" {
		t.Fatal("installed device unknown on the second server")
	}

	// Expire sweeps it back out (cutoff after its only observation).
	cutoff := binary.LittleEndian.AppendUint64(nil, uint64(10*time.Second))
	status, reply = shardCall(t, conn2, br2, wire.StreamExpire, 0, cutoff)
	rd := wire.Reader{Buf: reply}
	if expired := rd.Rooms(len(reply), nil, wire.Interner{}); status != wire.StreamOK || rd.Short || len(expired) != 1 || expired[0] != "p" {
		t.Fatalf("expire answered status %d, % x, want [p]", status, reply)
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

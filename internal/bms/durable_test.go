package bms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

func openDurable(t *testing.T, dir string, policy store.FsyncPolicy) (*Server, *building.Building) {
	t.Helper()
	b := building.PaperHouse()
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenDurableServer(b, st, 2, DurableConfig{Dir: dir, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

// viewsJSON serialises every externally observable view the crashtest
// compares: occupancy, events, dwell, the shard rollup read, known
// devices, model version.
func viewsJSON(t *testing.T, s *Server) string {
	t.Helper()
	_, version := s.st.Model()
	blob, err := json.Marshal(map[string]any{
		"occupancy": s.Occupancy(),
		"events":    s.Events(),
		"dwell":     s.DwellTotals(),
		"rollup":    NewShardRollup(s.Summary()),
		"devices":   s.KnownDevices(),
		"version":   version,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// sequenced stamps a monotone (epoch, seq) on a fabricated report.
func sequenced(r transport.Report, seq uint64) transport.Report {
	r.Epoch, r.Seq = 1, seq
	return r
}

// TestDurableRecoverAfterKill simulates kill -9: the first server is
// abandoned without Close (its WAL files keep every logged record) and
// a second server recovers from the same directory. Every view must be
// byte-identical.
func TestDurableRecoverAfterKill(t *testing.T) {
	for _, policy := range []store.FsyncPolicy{store.FsyncBatch, store.FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			s1, b := openDurable(t, dir, policy)
			trainServer(t, s1, b)
			seq := uint64(0)
			for round := 0; round < 4; round++ {
				var batch []transport.Report
				for d := 0; d < 6; d++ {
					dev := []string{"p0", "p1", "p2", "p3", "p4", "p5"}[d]
					seq++
					batch = append(batch, sequenced(reportNear(b, dev, (d+round)%len(b.Beacons), float64(10*round+d)), seq))
				}
				if _, err := s1.IngestBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			want := viewsJSON(t, s1)
			// No Close: this is the crash. Recover into a fresh server.
			s2, _ := openDurable(t, dir, policy)
			defer s2.Close()
			if got := viewsJSON(t, s2); got != want {
				t.Fatalf("recovered views diverge\n got: %s\nwant: %s", got, want)
			}
			if s2.Classifier() != "scene-svm" {
				t.Fatalf("recovered classifier = %s", s2.Classifier())
			}
		})
	}
}

// TestDurableRecoveryDedupsRetransmissions proves replay idempotence:
// a batch retransmitted to the recovered server is a no-op, because
// the (Epoch, Seq) marks recovered with the log.
func TestDurableRecoveryDedupsRetransmissions(t *testing.T) {
	dir := t.TempDir()
	s1, b := openDurable(t, dir, store.FsyncOff)
	var batch []transport.Report
	for i := 0; i < 5; i++ {
		batch = append(batch, sequenced(reportNear(b, "phone", i%len(b.Beacons), float64(i)), uint64(i+1)))
	}
	if _, err := s1.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	want := viewsJSON(t, s1)

	s2, _ := openDurable(t, dir, store.FsyncOff)
	defer s2.Close()
	if _, err := s2.IngestBatch(batch); err != nil { // full retransmission
		t.Fatal(err)
	}
	if got := viewsJSON(t, s2); got != want {
		t.Fatalf("retransmission after recovery changed state\n got: %s\nwant: %s", got, want)
	}
}

// TestDurableCompactionPreservesState: compact mid-stream, keep
// ingesting, crash, recover — snapshot + tail must reassemble the full
// state, and records from before the compaction must not double-apply.
func TestDurableCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s1, b := openDurable(t, dir, store.FsyncOff)
	trainServer(t, s1, b)
	for i := 0; i < 6; i++ {
		if _, err := s1.Ingest(sequenced(reportNear(b, "phone", i%len(b.Beacons), float64(i)), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if s1.WALSize() != 0 {
		t.Fatalf("wal size after compact = %d", s1.WALSize())
	}
	for i := 6; i < 12; i++ {
		if _, err := s1.Ingest(sequenced(reportNear(b, "phone", i%len(b.Beacons), float64(i)), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	want := viewsJSON(t, s1)
	s2, _ := openDurable(t, dir, store.FsyncOff)
	defer s2.Close()
	if got := viewsJSON(t, s2); got != want {
		t.Fatalf("recovered views diverge after compaction\n got: %s\nwant: %s", got, want)
	}
}

// TestDurableDeviceLifecycleReplays covers the striped non-observation
// records: evict, install and expire must land in the log and replay
// in per-device order.
func TestDurableDeviceLifecycleReplays(t *testing.T) {
	dir := t.TempDir()
	s1, b := openDurable(t, dir, store.FsyncOff)
	for i := 0; i < 3; i++ {
		if _, err := s1.Ingest(sequenced(reportNear(b, "mover", 0, float64(i)), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Ingest(sequenced(reportNear(b, "sleeper", 1, float64(i)), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := s1.EvictDevice("mover")
	if !ok {
		t.Fatal("evict found no state")
	}
	st.Room = "bedroom2" // pretend another shard advanced it
	if err := s1.InstallDevice(st); err != nil {
		t.Fatal(err)
	}
	if got := s1.ExpireBefore(100 * time.Second); len(got) != 2 {
		t.Fatalf("expired %v", got)
	}
	want := viewsJSON(t, s1)

	s2, _ := openDurable(t, dir, store.FsyncOff)
	defer s2.Close()
	if got := viewsJSON(t, s2); got != want {
		t.Fatalf("recovered views diverge\n got: %s\nwant: %s", got, want)
	}
	// The expire kept the marks: a stale retransmission stays dead.
	if epoch, seq := s2.st.SeqMark("sleeper"); epoch != 1 || seq != 3 {
		t.Fatalf("sleeper mark = (%d, %d)", epoch, seq)
	}
}

// TestDurableGracefulClose drains through Close and recovers from the
// snapshot alone (the log is empty after the final compaction).
func TestDurableGracefulClose(t *testing.T) {
	dir := t.TempDir()
	s1, b := openDurable(t, dir, store.FsyncBatch)
	for i := 0; i < 5; i++ {
		if _, err := s1.Ingest(sequenced(reportNear(b, "phone", i%len(b.Beacons), float64(i)), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	want := viewsJSON(t, s1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openDurable(t, dir, store.FsyncBatch)
	defer s2.Close()
	if got := viewsJSON(t, s2); got != want {
		t.Fatalf("views after graceful drain diverge\n got: %s\nwant: %s", got, want)
	}
}

// TestBinaryObsRecordRoundtrip pins the observation record codec on
// its edge cases: empty beacon sets, empty rooms, zero freshness marks,
// non-ASCII device names, non-finite distances and clocks — and that a
// received payload is logged as the very bytes it arrived in.
func TestBinaryObsRecordRoundtrip(t *testing.T) {
	b, rooms := obsRecordBatch()
	payload := wire.AppendPayload(nil, b)
	rec := appendObsRecord(nil, b, payload, rooms)
	if rec[0] != recObsTag {
		t.Fatalf("record starts with %#02x, want the observation tag", rec[0])
	}
	if !bytes.Equal(rec[5:5+len(payload)], payload) {
		t.Fatal("the received payload is not in the record verbatim")
	}
	if encoded := appendObsRecord(nil, b, nil, rooms); !bytes.Equal(encoded, rec) {
		t.Fatal("encoding the batch and copying its payload produce different records")
	}
	// "kitchen" twice is one run: 1 + 1 + 7 bytes, then the empty room's 2.
	if suffix := len(rec) - 5 - len(payload); suffix != 11 {
		t.Fatalf("rooms suffix is %d bytes, want 11 (run-length coded)", suffix)
	}
	got := &wire.Batch{}
	gotRooms, err := decodeObsRecord(rec, got, nil, wire.Interner{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRooms, rooms) {
		t.Fatalf("rooms %q, want %q", gotRooms, rooms)
	}
	if !bytes.Equal(wire.AppendPayload(nil, got), payload) {
		t.Fatal("decoded batch differs from the logged one")
	}
	// Replay puts the observation on exactly the time ingest did.
	replayed := make([]store.Observation, got.Len())
	wireObservations(got, replayed)
	if at, want := replayed[1].At, reportTime(b.At[1]); at != want {
		t.Fatalf("replayed At = %d, ingest computed %d", at, want)
	}

	// Every truncation of a valid record must error, never panic.
	for cut := 0; cut < len(rec); cut++ {
		if _, err := decodeObsRecord(rec[:cut], got, nil, wire.Interner{}); err == nil {
			t.Fatalf("truncated record (%d of %d bytes) decoded without error", cut, len(rec))
		}
	}
	if _, err := decodeObsRecord(append(rec, 0), got, nil, wire.Interner{}); err == nil {
		t.Fatal("a record with a trailing byte decoded without error")
	}
}

// TestDurableRecordSameThroughEveryDoor: the WAL does not remember which
// face a report came in by. The same reports through the JSON doors
// (Ingest, IngestBatch) and as wire frames (IngestWireFrameFenced) leave
// byte-identical stripe logs — single-device uploads, whose received
// payload is logged verbatim, and stripe-spanning ones, which are
// regrouped, alike.
func TestDurableRecordSameThroughEveryDoor(t *testing.T) {
	jsonDir, wireDir := t.TempDir(), t.TempDir()
	viaJSON := openDurableRetain(t, jsonDir, 100, store.FsyncOff)
	viaWire := openDurableRetain(t, wireDir, 100, store.FsyncOff)
	b := building.PaperHouse()

	var uploads [][]transport.Report
	for i := 0; i < 4; i++ {
		reports, _ := deviceBatch(t, b, fmt.Sprintf("phone-%d", i%2), uint64(1+11*i), 3)
		uploads = append(uploads, reports)
	}
	var relay []transport.Report
	stripes := map[int]bool{}
	for d := 0; d < 24; d++ {
		device := fmt.Sprintf("relay-%02d", d)
		stripes[store.StripeFor(device)] = true
		relay = append(relay, sequenced(reportNear(b, device, d%len(b.Beacons), 1.1+float64(d)/7), 1))
	}
	if len(stripes) < 4 {
		t.Fatalf("vacuous: the relay batch touches %d stripes", len(stripes))
	}
	uploads = append(uploads, relay, []transport.Report{sequenced(reportNear(b, "loner", 0, 0.3), 1)})

	for n, reports := range uploads {
		var want []string
		var err error
		if len(reports) == 1 {
			var room string
			room, err = viaJSON.Ingest(reports[0])
			want = []string{room}
		} else {
			want, err = viaJSON.IngestBatch(reports)
		}
		if err != nil {
			t.Fatal(err)
		}
		wb := new(wire.Batch)
		if err := transport.EncodeReports(wb, reports); err != nil {
			t.Fatal(err)
		}
		got, err := viaWire.IngestWireFrameFenced(0, wire.AppendFrame(nil, wb))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("upload %d: the wire door answered %q, the JSON door %q", n, got, want)
		}
	}

	logged := 0
	for i := 0; i < store.ObsStripes; i++ {
		name := fmt.Sprintf("stripe-%02d.wal", i)
		j, err := os.ReadFile(filepath.Join(jsonDir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(wireDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j, w) {
			t.Errorf("%s: %d bytes logged through the JSON doors differ from %d through the wire door", name, len(j), len(w))
		}
		logged += len(j)
	}
	if logged == 0 {
		t.Fatal("vacuous: nothing reached the stripe logs")
	}
}

package bms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/obs"
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
// compares: occupancy, events, dwell, the summary a rollup read carries,
// known devices, model version.
func viewsJSON(t *testing.T, s *Server) string {
	t.Helper()
	_, version := s.st.Model()
	blob, err := json.Marshal(map[string]any{
		"occupancy": s.Occupancy(),
		"events":    s.Events(),
		"dwell":     s.DwellTotals(),
		"rollup":    s.Summary(),
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
// abandoned without Close (its log file keeps every logged record) and
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
			if fmt.Sprintf("%T", s2.classifierSnapshot()) != "*classify.SceneSVM" {
				t.Fatalf("recovered classifier = %s", fmt.Sprintf("%T", s2.classifierSnapshot()))
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

// TestDurableDeviceLifecycleReplays covers the device-lifecycle
// records: evict, install and expire must land in the log and replay
// in the order they happened.
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
	st, ok := evict(t, s1, "mover")
	if !ok {
		t.Fatal("evict found no state")
	}
	st.Room = "bedroom2" // pretend another shard advanced it
	if err := s1.InstallDevice(0, st); err != nil {
		t.Fatal(err)
	}
	if got := expire(t, s1, 100*time.Second); len(got) != 2 {
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
// byte-identical logs, one record an upload — single-device uploads and
// a 24-device relay batch alike — and what the wire door logged is the
// payload of the frame it received, verbatim.
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
	for d := 0; d < 24; d++ {
		relay = append(relay, sequenced(reportNear(b, fmt.Sprintf("relay-%02d", d), d%len(b.Beacons), 1.1+float64(d)/7), 1))
	}
	uploads = append(uploads, relay, []transport.Report{sequenced(reportNear(b, "loner", 0, 0.3), 1)})

	var frames [][]byte
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
		frames = append(frames, wire.AppendFrame(nil, wb))
		got, err := viaWire.IngestWireFrameFenced(0, frames[n])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("upload %d: the wire door answered %q, the JSON door %q", n, got, want)
		}
	}

	j, err := os.ReadFile(filepath.Join(jsonDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(filepath.Join(wireDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j, w) {
		t.Errorf("%d bytes logged through the JSON doors differ from %d through the wire door", len(j), len(w))
	}
	n := 0
	if _, err := wire.Scan(w, func(_ uint64, rec []byte) error {
		if n < len(frames) {
			payload, err := wire.DecodeFramePayload(frames[n], new(wire.Batch))
			if err != nil {
				return err
			}
			if len(rec) < 5+len(payload) || !bytes.Equal(rec[5:5+len(payload)], payload) {
				t.Errorf("record %d does not carry upload %d's received payload verbatim", n, n)
			}
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(uploads) {
		t.Fatalf("%d records for %d uploads, want one each", n, len(uploads))
	}
}

// TestDurableBatchIsAtomicInTheLog cuts wal.log at every byte inside a
// relay batch's frame — the torn write of a power loss mid-batch.
// Recovery must keep everything before the batch and none of the batch:
// no device of it is known, whichever device's bytes the cut fell in.
func TestDurableBatchIsAtomicInTheLog(t *testing.T) {
	src := t.TempDir()
	s1 := openDurableRetain(t, src, 100, store.FsyncOff)
	b := building.PaperHouse()
	before, _ := deviceBatch(t, b, "settled", 1, 3)
	if _, err := s1.IngestBatch(before); err != nil {
		t.Fatal(err)
	}
	want := viewsJSON(t, s1)
	prefix := int(s1.WALSize())
	var relay []transport.Report
	for d := 0; d < 12; d++ {
		relay = append(relay, sequenced(reportNear(b, fmt.Sprintf("relay-%02d", d), d%len(b.Beacons), 40+float64(d)/7), 1))
	}
	if _, err := s1.IngestBatch(relay); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != int(s1.WALSize()) || len(full)-prefix < 12*20 {
		t.Fatalf("vacuous: log is %d bytes after a %d-byte prefix (the WAL counts %d)", len(full), prefix, s1.WALSize())
	}
	for cut := prefix; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openDurableRetain(t, dir, 100, store.FsyncOff)
		if got := viewsJSON(t, s2); got != want {
			t.Fatalf("cut at byte %d of %d: recovered views\n got: %s\nwant: %s", cut, len(full), got, want)
		}
		if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != int64(prefix) {
			t.Fatalf("cut at byte %d: log not repaired to the %d-byte prefix (%v)", cut, prefix, err)
		}
		_ = s2.dur.wal.Close()
	}
}

// TestDurableAppendFailureIsCounted: against a closed log file every
// append fails, wal_append_errors_total counts each, and the write that
// asked for it fails whole — the TTL sweep like an upload: it expires
// nothing and says why.
func TestDurableAppendFailureIsCounted(t *testing.T) {
	s := openDurableRetain(t, t.TempDir(), 100, store.FsyncOff)
	m := obs.New()
	s.Instrument(m)
	b := building.PaperHouse()
	for _, device := range []string{"early", "late"} {
		if _, err := s.Ingest(sequenced(reportNear(b, device, 0, 1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.TakeSnapshot().Counters["wal_append_errors_total"]; got != 0 {
		t.Fatalf("wal_append_errors_total = %v before any failure", got)
	}
	if err := s.dur.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ExpireBefore(0, 100*time.Second); err == nil || got != nil {
		t.Fatalf("the sweep expired %v (%v) with the log closed, want nothing and the append's failure", got, err)
	}
	for _, device := range []string{"early", "late"} {
		if st, ok := s.ExportDevice(device); !ok || !st.Seen || len(history(s.st, device)) != 1 {
			t.Fatalf("a sweep the log refused moved %s: %+v (%v), %d observations", device, st, ok, len(history(s.st, device)))
		}
	}
	if got := m.TakeSnapshot().Counters["wal_append_errors_total"]; got != 1 {
		t.Fatalf("wal_append_errors_total = %v after one failed append, want 1", got)
	}
	if _, err := s.Ingest(sequenced(reportNear(b, "early", 0, 200), 2)); err == nil {
		t.Fatal("an ingest whose log append failed was acknowledged")
	}
	if got := m.TakeSnapshot().Counters["wal_append_errors_total"]; got != 2 {
		t.Fatalf("wal_append_errors_total = %v after two failed appends, want 2", got)
	}
}

// TestDurableOpensDrainedStripedDirectory: what a graceful stop of a
// build from before the one-file log leaves — a snapshot beside
// truncated stripe-NN.wal and meta.wal files — opens as is: the empty
// leftovers go, the snapshot's state comes back.
func TestDurableOpensDrainedStripedDirectory(t *testing.T) {
	dir := t.TempDir()
	s1, b := openDurable(t, dir, store.FsyncOff)
	trainServer(t, s1, b)
	for i := 0; i < 5; i++ {
		if _, err := s1.Ingest(sequenced(reportNear(b, "phone", i%len(b.Beacons), float64(i)), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	want := viewsJSON(t, s1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot format did not change; dress the directory as the
	// older layout left it.
	if err := os.Remove(filepath.Join(dir, "wal.log")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("stripe-%02d.wal", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := openDurable(t, dir, store.FsyncOff)
	defer s2.Close()
	if got := viewsJSON(t, s2); got != want {
		t.Fatalf("views recovered from the drained directory diverge\n got: %s\nwant: %s", got, want)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || filepath.Base(names[1]) != "wal.log" || filepath.Ext(names[0]) != ".snap" {
		t.Fatalf("the directory holds %v, want one snapshot and wal.log", names)
	}
}

// TestReplacedFormsRefusedByName: the observation record's tag and the
// snapshot sections' frame version moved with the payload's form, and
// nothing reads what they replaced. A data directory holding either — its
// checksums intact — fails OpenDurableServer with the file and the tag or
// version found: never skipped, never read as something else.
func TestReplacedFormsRefusedByName(t *testing.T) {
	open := func(dir string) error {
		st, _ := store.New(100)
		s, err := OpenDurableServer(building.PaperHouse(), st, 2, DurableConfig{Dir: dir, Policy: store.FsyncOff})
		if err == nil {
			s.Close()
		}
		return err
	}
	refused := func(what string, err error, wants ...string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: the server opened", what)
		}
		for _, want := range wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: the refusal %q does not name %q", what, err, want)
			}
		}
	}

	// A log whose one observation record carries the old tag.
	b, rooms := obsRecordBatch()
	rec := appendObsRecord(nil, b, nil, rooms)
	rec[0] = 0x02
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wire.AppendLogFrame(nil, 0, rec), 0o644); err != nil {
		t.Fatal(err)
	}
	refused("old record tag", open(dir), "wal.log", "record tag 0x02")

	// A snapshot whose sections are framed under the old version.
	src := t.TempDir()
	s, house := openDurable(t, src, store.FsyncOff)
	for i := 0; i < 5; i++ {
		if _, err := s.Ingest(sequenced(reportNear(house, "phone", i%len(house.Beacons), float64(i)), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path, snap := newestSnapshot(t, src)
	spans, kinds := snapshotSections(t, snap)
	if !bytes.Contains(kinds, []byte{secDevice}) {
		t.Fatalf("vacuous: sections %q hold no device section", kinds)
	}
	for _, span := range spans {
		snap[span[0]] = 0x01
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	refused("old section version", open(dir), filepath.Base(path), "version 0x01")
}

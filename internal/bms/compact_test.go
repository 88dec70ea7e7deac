package bms

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/obs"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// compactDuring runs one compaction of s whose snapshot writer calls
// during first — behind the cut, outside the hold, with ingest free to
// run — and returns what Compact returns.
func compactDuring(s *Server, during func()) error {
	return s.dur.wal.Compact(func() func(io.Writer) error {
		write := s.cutDurableSnapshot()
		return func(w io.Writer) error {
			during()
			return write(w)
		}
	})
}

// copyDataDir copies a data directory file by file, as a crash at this
// moment would leave it.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// withLandedSnapshot returns a copy of crash — a directory copied behind
// a cut — with the live directory's newest snapshot added: the old
// snapshot, the sealed logs, wal.log and the new snapshot together are
// what a crash between the snapshot's rename and the reclaim leaves.
func withLandedSnapshot(t *testing.T, crash, live string) string {
	t.Helper()
	dst := copyDataDir(t, crash)
	path, data := newestSnapshot(t, live)
	if err := os.WriteFile(filepath.Join(dst, filepath.Base(path)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// wireFrame encodes well-formed reports as the frame a gateway would
// stream.
func wireFrame(reports ...transport.Report) []byte {
	wb := &wire.Batch{}
	if err := transport.EncodeReports(wb, reports); err != nil {
		panic(err)
	}
	return wire.AppendFrame(nil, wb)
}

// TestCompactionDoesNotBlockAppends: while a compaction's snapshot
// writer is parked, uploads on several goroutines and a lease grant are
// logged, applied and acknowledged; the snapshot then lands and a reopen
// of the directory equals the live server. The hold the appenders did
// wait out has its own series, a sample far below the whole compaction's.
func TestCompactionDoesNotBlockAppends(t *testing.T) {
	dir := t.TempDir()
	s := openDurableRetain(t, dir, 16, store.FsyncBatch)
	m := obs.New()
	s.Instrument(m)
	b := building.PaperHouse()
	trainServer(t, s, b)
	const writers = 4
	for d := 0; d < writers; d++ {
		for seq := uint64(1); seq <= 3; seq++ {
			if _, err := s.Ingest(sequenced(reportNear(b, fmt.Sprintf("phone-%d", d), d, float64(seq)), seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sealed := s.WALSize()

	parked, release := make(chan struct{}), make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		compacted <- compactDuring(s, func() {
			close(parked)
			<-release
		})
	}()
	<-parked

	acked := make(chan error, writers+1)
	for d := 0; d < writers; d++ {
		go func(d int) {
			var err error
			for seq := uint64(4); seq <= 9 && err == nil; seq++ {
				r := sequenced(reportNear(b, fmt.Sprintf("phone-%d", d), (d+int(seq))%len(b.Beacons), float64(seq)), seq)
				_, err = s.IngestWireFrameFenced(0, wireFrame(r))
			}
			acked <- err
		}(d)
	}
	go func() {
		_, _, err := s.GrantLease(3, "gateway-B")
		acked <- err
	}()
	timeout := time.After(20 * time.Second)
	for i := 0; i < writers+1; i++ {
		select {
		case err := <-acked:
			if err != nil {
				t.Error(err)
			}
		case <-timeout:
			close(release)
			t.Fatal("uploads and the lease grant were not acknowledged while the snapshot writer was parked: the compaction still holds ingest off for its write")
		}
	}
	if t.Failed() {
		close(release)
		t.FailNow()
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot-0000000000000001.snap")); err == nil {
		t.Fatal("vacuous: the snapshot landed before the writer was released")
	}
	close(release)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}

	// The cut fell before the parked-time records: they are the tail.
	if s.WALSize() == 0 {
		t.Fatal("vacuous: no log tail behind the snapshot")
	}
	last := s.LastCompaction()
	path, snap := newestSnapshot(t, dir)
	if filepath.Base(path) != "snapshot-0000000000000001.snap" || last.SnapshotBytes != int64(len(snap)) || last.LogBytesSealed != sealed {
		t.Fatalf("compaction %+v over %s (%d bytes), %d log bytes before the cut", last, path, len(snap), sealed)
	}
	hists := m.TakeSnapshot().Histograms
	stall, whole := hists["wal_compact_stall_seconds"], hists["wal_compact_seconds"]
	if stall.Count != 1 || whole.Count != 1 || stall.Sum >= whole.Sum || time.Duration(stall.Sum) != last.Stall {
		t.Fatalf("stall %v in %d samples (LastCompaction says %v), whole compaction %v in %d: want one each, the stall the smaller", time.Duration(stall.Sum), stall.Count, last.Stall, time.Duration(whole.Sum), whole.Count)
	}
	var recorded int
	for _, e := range m.Recorder().Snapshot() {
		if e.Kind != obs.EventCompact {
			continue
		}
		recorded++
		if e.Fields["snapshot_bytes"] != last.SnapshotBytes || e.Fields["log_bytes_sealed"] != last.LogBytesSealed || e.Fields["stall_ms"] != float64(last.Stall)/float64(time.Millisecond) {
			t.Fatalf("compact flight record %v, want %+v", e.Fields, last)
		}
	}
	if recorded != 1 {
		t.Fatalf("%d compact flight records, want 1", recorded)
	}

	// No Close: the crash. Snapshot + tail must be the live server.
	s2 := openDurableRetain(t, copyDataDir(t, dir), 16, store.FsyncBatch)
	defer s2.Close()
	requireSameState(t, s2, s)
	if epoch, holder := s2.GrantedLease(); epoch != 3 || holder != "gateway-B" {
		t.Fatalf("recovered lease (%d, %q)", epoch, holder)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// bigReports is one upload of 64 reports carrying 40 beacons each, about
// 94 KB on the log. Resent, it is logged again (every accepted report
// is) while the state stays as it was, so a test can grow the log
// without growing the snapshot.
func bigReports(b *building.Building) []transport.Report {
	reports := make([]transport.Report, 64)
	for i := range reports {
		r := transport.Report{Device: "bulk", AtSeconds: float64(i), Epoch: 1, Seq: uint64(i + 1)}
		for k := 0; k < 40; k++ {
			bc := b.Beacons[k%len(b.Beacons)]
			r.Beacons = append(r.Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: 1 + float64(k), RSSI: -60 - float64(k)})
		}
		reports[i] = r
	}
	return reports
}

// awaitCompaction waits out the background compaction an upload may have
// started.
func awaitCompaction(s *Server) {
	for s.dur.compacting.Load() {
		runtime.Gosched()
	}
}

// TestCompactTriggerAmortises: under the default configuration the
// background compaction waits until the log has grown by the newest
// snapshot's size once that exceeds DefaultCompactThreshold — a
// compaction rewrites the whole state, so it is not worth less log than
// that — and a reopened server takes the size from the file. An explicit
// threshold stays what the caller said, however large the state.
func TestCompactTriggerAmortises(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 7 MB snapshot and as much log, twice")
	}
	b := building.PaperHouse()
	id := b.Beacons[0].ID
	var hist []store.Observation
	for i := 0; i < 10000; i++ { // ≈ 0.7 KB each: one identity, 39 back references
		o := store.Observation{Device: "long", At: time.Duration(i), Seq: uint64(i + 1)}
		for k := 0; k < 40; k++ {
			o.Beacons = append(o.Beacons, store.BeaconDistance{ID: id, Distance: float64(k)})
		}
		hist = append(hist, o)
	}
	open := func(dir string, threshold int64) (*Server, *obs.Metrics) {
		t.Helper()
		st, err := store.New(len(hist))
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenDurableServer(b, st, 2, DurableConfig{Dir: dir, Policy: store.FsyncOff, CompactThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		m := obs.New()
		s.Instrument(m)
		return s, m
	}
	compactions := func(m *obs.Metrics) float64 { return m.TakeSnapshot().Counters["wal_compactions_total"] }
	upload := bigReports(b)
	// fill uploads until the log has grown to at least target, requiring
	// that no compaction starts on the way, and returns the size reached.
	fill := func(s *Server, m *obs.Metrics, target int64, landed float64) int64 {
		t.Helper()
		for s.WALSize() < target {
			before := s.WALSize()
			if _, err := s.IngestBatch(upload); err != nil {
				t.Fatal(err)
			}
			awaitCompaction(s)
			if got := compactions(m); got != landed || s.WALSize() < before {
				t.Fatalf("a compaction ran with the log at %d bytes (%v landed, want %v): the trigger is not the %d it should be", before, got, landed, target)
			}
		}
		return s.WALSize()
	}

	dir := t.TempDir()
	s, m := open(dir, 0)
	s.st.RestoreObservations("long", hist)
	s.st.InstallSeqMark("long", 0, uint64(len(hist)))
	if err := s.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	size := s.LastCompaction().SnapshotBytes
	if size < DefaultCompactThreshold+(2<<20) {
		t.Fatalf("vacuous: the snapshot is %d bytes, not well past the %d floor", size, DefaultCompactThreshold)
	}
	// Past the floor nothing happens; one upload short of the snapshot's
	// size still nothing; the upload that crosses it compacts.
	frame := fill(s, m, 1, 1)
	fill(s, m, DefaultCompactThreshold+frame, 1)
	fill(s, m, size-frame, 1)
	for s.WALSize() >= size-frame && compactions(m) == 1 {
		if _, err := s.IngestBatch(upload); err != nil {
			t.Fatal(err)
		}
		awaitCompaction(s)
	}
	if got := compactions(m); got != 2 || s.WALSize() > frame {
		t.Fatalf("%v compactions and %d log bytes once the log reached the snapshot's %d bytes, want the second compaction", got, s.WALSize(), size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopened, the size comes from the file: again no compaction at
	// the floor.
	_, snap := newestSnapshot(t, dir)
	s2, m2 := open(dir, 0)
	if got := s2.LastCompaction().SnapshotBytes; got != int64(len(snap)) || got < size {
		t.Fatalf("reopened over a %d-byte snapshot, LastCompaction says %d", len(snap), got)
	}
	fill(s2, m2, DefaultCompactThreshold+frame, 0)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// An explicit threshold is not amortised: two uploads' worth of log
	// compacts a 7 MB state.
	s3, m3 := open(dir, 2*frame)
	fill(s3, m3, frame, 0)
	if _, err := s3.IngestBatch(upload); err != nil {
		t.Fatal(err)
	}
	awaitCompaction(s3)
	if got := compactions(m3); got != 1 {
		t.Fatalf("%v compactions after %d log bytes under an explicit threshold of %d", got, 2*frame, 2*frame)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailingCompactionBacksOff: a compaction that cannot even seal the
// log — here its sealed name is taken by a directory — fails before
// anything moves, so the log stays past the threshold. The next attempt
// must wait for another threshold of growth, not ride on every upload;
// every failure is counted; and when the fault clears the backlog
// compacts and recovers exactly.
func TestFailingCompactionBacksOff(t *testing.T) {
	dir := t.TempDir()
	b := building.PaperHouse()
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	upload := bigReports(b)[:8]
	const threshold = 64 << 10 // some five uploads
	s, err := OpenDurableServer(b, st, 2, DurableConfig{Dir: dir, Policy: store.FsyncOff, CompactThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	s.Instrument(m)
	blocker := filepath.Join(dir, "wal-0000000000000000.sealed")
	if err := os.MkdirAll(filepath.Join(blocker, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	const uploads = 40
	for i := 0; i < uploads; i++ {
		if _, err := s.IngestBatch(upload); err != nil {
			t.Fatal(err)
		}
		awaitCompaction(s)
	}
	counters := m.TakeSnapshot().Counters
	failures, most := counters["wal_compact_errors_total"], float64(s.WALSize()/threshold)
	if counters["wal_compactions_total"] != 0 || failures < 2 || failures > most {
		t.Fatalf("%v failed and %v landed compactions over %d log bytes at a threshold of %d: want none landed, and between 2 and %v attempts", failures, counters["wal_compactions_total"], s.WALSize(), threshold, most)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < uploads && m.TakeSnapshot().Counters["wal_compactions_total"] == 0; i++ {
		if _, err := s.IngestBatch(upload); err != nil {
			t.Fatal(err)
		}
		awaitCompaction(s)
	}
	if got := m.TakeSnapshot().Counters["wal_compactions_total"]; got != 1 {
		t.Fatalf("%v compactions landed after the fault cleared", got)
	}
	if _, err := s.Ingest(sequenced(reportNear(b, "after", 0, 500), 1)); err != nil {
		t.Fatal(err)
	}
	s2 := openDurableRetain(t, copyDataDir(t, dir), 100, store.FsyncOff)
	defer s2.Close()
	requireSameState(t, s2, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogCannotOutrunALandingCompaction: a background compaction stops
// nobody until the log behind its cut has itself grown by a whole
// threshold — then the appender that got it there waits for the landing,
// so the log is bounded by a threshold sealed and a threshold live
// however slowly snapshots land. Before the cut, with the log past the
// threshold and the compaction merely started, nobody waits: that log is
// what the cut is about to seal, and the cut waits for the appenders.
func TestLogCannotOutrunALandingCompaction(t *testing.T) {
	b := building.PaperHouse()
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	upload := bigReports(b)[:4]
	const threshold = 64 << 10
	s, err := OpenDurableServer(b, st, 2, DurableConfig{Dir: t.TempDir(), Policy: store.FsyncOff, CompactThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	s.Instrument(m)
	d := s.dur

	// Stand in for a background compaction that has started and not cut.
	d.compacting.Store(true)
	for s.WALSize() < 2*threshold {
		if _, err := s.IngestBatch(upload); err != nil {
			t.Fatal(err)
		}
	}
	// Now it has cut, and its snapshot is landing.
	landing := make(chan struct{})
	d.landing.Store(&landing)
	acked := make(chan error, 1)
	go func() {
		_, err := s.IngestBatch(upload)
		acked <- err
	}()
	select {
	case err := <-acked:
		t.Fatalf("an upload was acknowledged (%v) with %d log bytes behind a cut whose snapshot has not landed, threshold %d", err, s.WALSize(), threshold)
	case <-time.After(100 * time.Millisecond):
	}
	d.landing.Store(nil)
	close(landing)
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	d.compacting.Store(false)

	// The real thing clears its own channel: the backlog compacts and
	// uploads go on, none left waiting on a landing long over.
	backlog := s.WALSize()
	for i := 0; i < 50; i++ {
		if _, err := s.IngestBatch(upload); err != nil {
			t.Fatal(err)
		}
	}
	awaitCompaction(s)
	if landed := m.TakeSnapshot().Counters["wal_compactions_total"]; landed < 1 || s.WALSize() >= backlog || d.landing.Load() != nil {
		t.Fatalf("%v compactions landed, %d log bytes behind the last cut (the backlog was %d), landing channel %v", landed, s.WALSize(), backlog, d.landing.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashTableWithDeviceLifecycle walks the rows of the crash table
// the store's own test cannot judge: the records behind the cut include
// an expiry and an eviction, whose replay over a snapshot that already
// reflects later observations would destroy them. A server is copied
// behind its cut (snapshot not landed), the copy restarted, fed, and
// copied again between its own landing and reclaim: the second copy
// holds the first cut's frames in a sealed log the new snapshot covers,
// and must not re-apply them. Each copy opens to exactly the state
// acknowledged when it was taken.
func TestCrashTableWithDeviceLifecycle(t *testing.T) {
	b := building.PaperHouse()
	report := func(s *Server, device string, beacon int, at float64, seq uint64) {
		t.Helper()
		if _, err := s.Ingest(sequenced(reportNear(b, device, beacon, at), seq)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	s1 := openDurableRetain(t, dir, 16, store.FsyncOff)
	trainServer(t, s1, b)
	for seq := uint64(1); seq <= 3; seq++ {
		report(s1, "ghost", 0, float64(seq), seq)
		report(s1, "mover", 1, 1000+float64(seq), seq)
		report(s1, "stayer", 2, 1000+float64(seq), seq)
	}
	if err := s1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	report(s1, "stayer", 2, 1004, 4)

	// Row: after the cut, before the rename.
	var behindCut string
	var want1 serverState
	var moved DeviceState
	err := compactDuring(s1, func() {
		report(s1, "stayer", 3, 1005, 5)
		if expired := expire(t, s1, 500*time.Second); len(expired) != 1 || expired[0] != "ghost" {
			t.Errorf("the sweep expired %v, want the ghost", expired)
		}
		var ok bool
		if moved, ok = evict(t, s1, "mover"); !ok {
			t.Error("the mover was not there to evict")
		}
		behindCut = copyDataDir(t, dir)
		want1 = stateOf(s1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sealed, _ := filepath.Glob(filepath.Join(behindCut, "wal-*.sealed")); len(sealed) != 1 {
		t.Fatalf("the copy behind the cut holds sealed logs %v, want one", sealed)
	}
	torn := copyDataDir(t, behindCut)
	between1 := withLandedSnapshot(t, behindCut, dir)

	// Restart the copy. It must stamp above the frames it already holds.
	s2 := openDurableRetain(t, behindCut, 16, store.FsyncOff)
	requireState(t, stateOf(s2), want1)
	// The ghost comes back with new observations above its kept mark, the
	// mover is installed again and reports on.
	for seq := uint64(4); seq <= 6; seq++ {
		report(s2, "ghost", 4, 2000+float64(seq), seq)
	}
	if err := s2.InstallDevice(0, moved); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(4); seq <= 6; seq++ {
		report(s2, "mover", 5, 2000+float64(seq), seq)
	}
	var behindCut2 string
	var want2 serverState
	err = compactDuring(s2, func() {
		report(s2, "stayer", 0, 2010, 6)
		behindCut2 = copyDataDir(t, behindCut)
		want2 = stateOf(s2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want2.histories["ghost"]) != 3 || len(want2.histories["mover"]) != 3 || want2.exports["mover"].Seq != 6 {
		t.Fatalf("vacuous: the ghost holds %d observations and the mover %d (mark %d) after their return", len(want2.histories["ghost"]), len(want2.histories["mover"]), want2.exports["mover"].Seq)
	}

	// Row: after the rename, before the reclaim — over two sealed logs,
	// the older holding the expiry and the eviction.
	between2 := withLandedSnapshot(t, behindCut2, behindCut)
	damaged := copyDataDir(t, behindCut2)
	if sealed, _ := filepath.Glob(filepath.Join(between2, "wal-*.sealed")); len(sealed) != 2 {
		t.Fatalf("the copy between landing and reclaim holds sealed logs %v, want two", sealed)
	}
	for row, c := range map[string]struct {
		dir  string
		want serverState
	}{
		"between landing and reclaim":                           {between1, want1},
		"after the cut, restarted, after the second cut":        {behindCut2, want2},
		"after the cut, restarted, between landing and reclaim": {between2, want2},
	} {
		s := openDurableRetain(t, c.dir, 16, store.FsyncOff)
		requireState(t, stateOf(s), c.want)
		if err := s.Close(); err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		if left, _ := os.ReadDir(c.dir); len(left) != 2 {
			t.Fatalf("%s: the drain left %d files, want one snapshot beside wal.log", row, len(left))
		}
	}

	// A torn tail on wal.log repairs: the eviction, last in the log, is
	// the record lost, and the mover is back.
	logPath := filepath.Join(torn, "wal.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s3 := openDurableRetain(t, torn, 16, store.FsyncOff)
	defer s3.Close()
	if st, ok := s3.ExportDevice("mover"); !ok || st.Seq != 3 {
		t.Fatalf("behind a torn eviction record the mover is %+v (%v)", st, ok)
	}
	if _, ok := s3.ExportDevice("ghost"); ok && len(history(s3.st, "ghost")) != 0 {
		t.Fatal("the expiry before the torn record did not replay")
	}
	// A flipped byte in a sealed log is damage inside committed history.
	sealed, _ := filepath.Glob(filepath.Join(damaged, "wal-*.sealed"))
	data, err := os.ReadFile(sealed[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x20
	if err := os.WriteFile(sealed[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, _ := store.New(16)
	if srv, err := OpenDurableServer(b, st, 2, DurableConfig{Dir: damaged, Policy: store.FsyncOff, CompactThreshold: -1}); err == nil {
		srv.Close()
		t.Fatal("the server opened over a sealed log with a flipped byte")
	}
	_ = s1 // abandoned: the crash
}

// TestCutViewsSurviveIngestUnderRace: the views a cut hands the snapshot
// writer — slice headers into histories and event logs that ingest keeps
// appending to, sliding and reallocating — must read as they stood at
// the cut however long the write takes. Appenders on every store stripe
// run past the retention bound beside TTL expiry and an evict/install
// loop while compactions run back to back; each landed snapshot,
// restored alone, must equal the state copied out under the cut's own
// exclusive hold — by construction the state a prefix of the
// acknowledged records produces.
func TestCutViewsSurviveIngestUnderRace(t *testing.T) {
	const retain, writers, rounds = 8, 4, 10
	b := building.PaperHouse()
	dir := t.TempDir()
	s := openDurableRetain(t, dir, retain, store.FsyncOff)
	trainServer(t, s, b)

	// Devices until every store stripe has one, dealt round the writers.
	var devices [writers][]string
	covered := map[int]bool{}
	for i := 0; len(covered) < store.ObsStripes; i++ {
		name := fmt.Sprintf("dev-%03d", i)
		covered[store.StripeFor(name)] = true
		devices[i%writers] = append(devices[i%writers], name)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// halt stops the goroutines below however the test ends: a Fatal
	// must not leave them writing.
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	var uploads, sweeps, moves atomic.Int64
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(mine []string) {
			defer wg.Done()
			for seq := uint64(1); running(); seq++ {
				reports := make([]transport.Report, len(mine))
				for i, device := range mine {
					reports[i] = sequenced(reportNear(b, device, (i+int(seq/10))%len(b.Beacons), 1000+2*float64(seq)), seq)
				}
				if _, err := s.IngestWireFrameFenced(0, wireFrame(reports...)); err != nil {
					t.Error(err)
					return
				}
				uploads.Add(1)
				// Paced, so the state the test restores and compares each
				// round stays small.
				time.Sleep(50 * time.Microsecond)
			}
		}(devices[g])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); running(); seq++ {
			// The blinker reports long ago, so each sweep expires it down
			// to its mark; the mover reports, leaves and is installed back.
			// Both are this goroutine's alone: operations on one device
			// replay in the order they were applied only when they do not
			// race each other.
			blink := sequenced(reportNear(b, "blinker", 0, float64(seq)), seq)
			move := sequenced(reportNear(b, "mover", int(seq/2)%len(b.Beacons), 1000+2*float64(seq)), seq)
			if _, err := s.IngestBatch([]transport.Report{blink, move}); err != nil {
				t.Error(err)
				return
			}
			expired, err := s.ExpireBefore(0, 500*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			if len(expired) == 1 {
				sweeps.Add(1)
			}
			st, ok := s.ExportDevice("mover")
			if err := s.EvictDevice(0, "mover"); err != nil {
				t.Error(err)
				return
			}
			if ok {
				if err := s.InstallDevice(0, st); err != nil {
					t.Error(err)
					return
				}
				moves.Add(1)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// awaitSlide returns once every device has been sent twice the
	// retention bound again: its window has slid off whatever array it
	// was in.
	awaitSlide := func() {
		for target := uploads.Load() + writers*2*retain; uploads.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	for round := 0; round < rounds; round++ {
		awaitSlide()
		var want serverState
		err := s.dur.wal.Compact(func() func(io.Writer) error {
			write := s.cutDurableSnapshot()
			want = stateOf(s)
			return func(w io.Writer) error {
				awaitSlide() // before a byte of the views is encoded
				return write(w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		path, snap := newestSnapshot(t, dir)
		alone := t.TempDir()
		if err := os.WriteFile(filepath.Join(alone, filepath.Base(path)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		restored := openDurableRetain(t, alone, retain, store.FsyncOff)
		requireState(t, stateOf(restored), want)
		if err := restored.Close(); err != nil {
			t.Fatal(err)
		}
	}
	halt()
	if sweeps.Load() == 0 || moves.Load() == 0 {
		t.Fatalf("vacuous: %d expiries and %d evict/install pairs beside the compactions", sweeps.Load(), moves.Load())
	}
	// And the whole run recovers: snapshot + tail equal the live server.
	s2 := openDurableRetain(t, copyDataDir(t, dir), retain, store.FsyncOff)
	defer s2.Close()
	requireSameState(t, s2, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

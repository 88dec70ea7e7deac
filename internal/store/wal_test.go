package store

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"occusim/internal/obs"
	"occusim/internal/wire"
)

// openTestWAL opens a WAL with no explicit syncing — the policy under
// which recovery guarantees are weakest, so every pass here holds a
// fortiori for batch.
func openTestWAL(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := OpenLog(dir, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// appendAll logs each payload under its own shared guard.
func appendAll(t *testing.T, w *WAL, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		w.Hold(false)
		err := w.AppendMeta([]byte(p))
		w.Release(false)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// replayAll collects every live record, in replay order, joined by
// commas.
func replayAll(t *testing.T, w *WAL) string {
	t.Helper()
	var got []string
	if err := w.ReplayLive(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	return strings.Join(got, ",")
}

// snapshotOf is a Compact cut whose snapshot is the given content.
func snapshotOf(content string) func() func(io.Writer) error {
	return func() func(io.Writer) error {
		return func(out io.Writer) error {
			_, err := io.WriteString(out, content)
			return err
		}
	}
}

// readSnapshot returns the content of the newest snapshot ("" when the
// log has never been compacted).
func readSnapshot(t *testing.T, w *WAL) string {
	t.Helper()
	r, ok, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return ""
	}
	defer r.Close()
	blob, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// copyDir copies a data directory as a crash would leave it: every file
// as it stands, in name order.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range listDir(t, src) {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestWALEmptyReplay(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	if got := replayAll(t, w); got != "" {
		t.Fatalf("fresh WAL replayed records: %s", got)
	}
	if _, ok, err := w.Snapshot(); ok || err != nil {
		t.Fatalf("fresh WAL has a snapshot (ok=%v err=%v)", ok, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen over the same (still empty) file.
	w2 := openTestWAL(t, dir)
	defer w2.Close()
	if got := replayAll(t, w2); got != "" {
		t.Fatalf("reopened empty WAL replayed records: %s", got)
	}
}

// frameHeaderLen is the log frame's fixed prefix.
const frameHeaderLen = wire.LogFrameHeaderLen

// frameLen is the on-disk size of one frame carrying payload p.
func frameLen(p string) int { return frameHeaderLen + len(p) }

// TestWALTornFinalRecord cuts the log file at every interesting
// point inside the final frame — mid-header, mid-payload, one byte
// short — and requires recovery to keep the full prefix, drop the torn
// tail, repair the file, and accept appends afterwards.
func TestWALTornFinalRecord(t *testing.T) {
	payloads := []string{"alpha", "bravo-br", "charlie"}
	prefix := frameLen(payloads[0]) + frameLen(payloads[1])
	cuts := []int{
		prefix + 3,                         // inside the length/crc header
		prefix + frameHeaderLen,            // header complete, payload absent
		prefix + frameHeaderLen + 3,        // mid-payload
		prefix + frameLen(payloads[2]) - 1, // one byte short
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			w := openTestWAL(t, dir)
			appendAll(t, w, payloads...)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, logName)
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}
			w2 := openTestWAL(t, dir)
			defer w2.Close()
			want := strings.Join(payloads[:2], ",")
			if got := replayAll(t, w2); got != want {
				t.Fatalf("recovered %v, want %v", got, want)
			}
			// The torn tail must be gone from disk…
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(prefix) {
				t.Fatalf("file not repaired: size %d, want %d (err %v)", fi.Size(), prefix, err)
			}
			// …and appends must continue from the clean boundary.
			appendAll(t, w2, "delta")
			if got := replayAll(t, w2); got != want+",delta" {
				t.Fatalf("after repair+append recovered %v, want %v,delta", got, want)
			}
		})
	}
}

// TestWALCorruptMiddleRecordFailsLoud flips one payload byte in the
// middle of committed history (valid frames follow it): recovery must
// refuse rather than silently drop the record.
func TestWALCorruptMiddleRecordFailsLoud(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	appendAll(t, w, "first", "second", "third")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderLen+1] ^= 0xff // payload byte of the FIRST frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir)
	defer w2.Close()
	err = w2.ReplayLive(func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt middle record replayed without a loud failure: %v", err)
	}
}

// TestWALSnapshotBarrier: records appended before a compaction carry
// the old generation and must be skipped once the snapshot exists —
// including when the log holding them was never reclaimed (the crash
// between the snapshot's rename and the reclaim, or a directory the
// truncate-in-place build left in its own such window).
func TestWALSnapshotBarrier(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	appendAll(t, w, "pre-1", "pre-2")
	if err := w.Compact(snapshotOf("SNAPSHOT")); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(listDir(t, dir), ","); got != snapshotName(1)+","+logName {
		t.Fatalf("a compaction left %s, want one snapshot beside one log", got)
	}
	appendAll(t, w, "post-1")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir)
	if blob := readSnapshot(t, w2); blob != "SNAPSHOT" {
		t.Fatalf("snapshot content %q", blob)
	}
	if got := replayAll(t, w2); got != "post-1" {
		t.Fatalf("replay after compact returned %q, want only the tail", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window: a snapshot newer than every log record, with the
	// log never reclaimed. Simulate by writing a higher-generation
	// snapshot next to a log full of old-generation records.
	dir2 := t.TempDir()
	w3 := openTestWAL(t, dir2)
	appendAll(t, w3, "stale-1", "stale-2")
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(dir2, snapshotName(1)), func(out io.Writer) error {
		_, err := out.Write([]byte("NEWER"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	w4 := openTestWAL(t, dir2)
	defer w4.Close()
	if got := replayAll(t, w4); got != "" {
		t.Fatalf("records below the snapshot generation replayed: %v", got)
	}
}

// TestWALRandomCrashPointReplay is the crash-point fuzz: a log of known
// records cut at arbitrary byte offsets must always recover exactly the
// longest whole-frame prefix, never an error, never a reordering.
func TestWALRandomCrashPointReplay(t *testing.T) {
	const records = 20
	src := t.TempDir()
	w, err := OpenLog(src, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	var payloads []string
	var bounds []int // cumulative frame-end offsets
	total := 0
	for i := 0; i < records; i++ {
		p := fmt.Sprintf("record-%02d-%s", i, strings.Repeat("x", i%7))
		payloads = append(payloads, p)
		total += frameLen(p)
		bounds = append(bounds, total)
	}
	appendAll(t, w, payloads...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(src, logName))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != total {
		t.Fatalf("log is %d bytes, expected %d", len(full), total)
	}

	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		cut := rng.Intn(len(full) + 1)
		wantN := 0
		for wantN < records && bounds[wantN] <= cut {
			wantN++
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wc, err := OpenLog(dir, FsyncOff)
		if err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, wc); got != strings.Join(payloads[:wantN], ",") {
			t.Fatalf("cut=%d: recovered %v, want prefix of %d", cut, got, wantN)
		}
		wc.Close()
	}
}

// gaugeValue reads a scalar series off the registry's snapshot.
func gaugeValue(t *testing.T, m *obs.Metrics, name string) float64 {
	t.Helper()
	snap := m.TakeSnapshot()
	if v, ok := snap.Gauges[name]; ok {
		return v
	}
	if v, ok := snap.Counters[name]; ok {
		return v
	}
	t.Fatalf("series %s not registered", name)
	return 0
}

// TestWALCompactFailureIsCountedAndHarmless: a snapshot write that
// fails must not count as a compaction, must be counted and
// flight-recorded as an error, and must lose nothing. The failed
// attempt has already cut, so the directory holds the old snapshot, the
// file the cut sealed and the live log, which recover — in append order —
// exactly what was acknowledged; a second failure seals a second file
// and the same holds; the attempt that finally lands covers all of it.
func TestWALCompactFailureIsCountedAndHarmless(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	m := obs.New()
	w.Instrument(m)
	appendAll(t, w, "pre-1")
	if err := w.Compact(snapshotOf("GOOD")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, "post-1")
	appendAll(t, w, "other")
	appendAll(t, w, "post-2")

	boom := fmt.Errorf("disk full (injected)")
	failing := func() func(io.Writer) error {
		return func(out io.Writer) error {
			_, _ = out.Write([]byte("HALF-WRITTEN"))
			return boom
		}
	}
	// recovered opens a copy of the directory — the crash — and returns
	// what it holds.
	recovered := func() (snapshot, records string) {
		t.Helper()
		wc := openTestWAL(t, copyDir(t, dir))
		defer wc.Close()
		return readSnapshot(t, wc), replayAll(t, wc)
	}
	want := "post-1,other,post-2"
	for attempt := 1; attempt <= 2; attempt++ {
		err := w.Compact(failing)
		if err == nil || !strings.Contains(err.Error(), boom.Error()) {
			t.Fatalf("failed snapshot write %d returned %v", attempt, err)
		}
		if got := gaugeValue(t, m, "wal_compactions_total"); got != 1 {
			t.Fatalf("wal_compactions_total = %v after one success and %d failures, want 1", got, attempt)
		}
		if got := gaugeValue(t, m, "wal_compact_errors_total"); got != float64(attempt) {
			t.Fatalf("wal_compact_errors_total = %v after %d failures", got, attempt)
		}
		if w.Size() != 0 || gaugeValue(t, m, "wal_size_bytes") != 0 {
			t.Fatalf("the log size is %d (gauge %v) right after a cut, want 0", w.Size(), gaugeValue(t, m, "wal_size_bytes"))
		}
		files := []string{snapshotName(1), sealedName(1), sealedName(2)}[:1+attempt]
		if got := strings.Join(listDir(t, dir), ","); got != strings.Join(append(files, logName), ",") {
			t.Fatalf("after %d failed attempts the directory holds %s", attempt, got)
		}
		if snap, records := recovered(); snap != "GOOD" || records != want {
			t.Fatalf("after %d failed attempts recovered snapshot %q and %q, want GOOD and %q", attempt, snap, records, want)
		}
		next := fmt.Sprintf("post-%d", attempt+2)
		appendAll(t, w, next)
		want += "," + next
		if snap, records := recovered(); snap != "GOOD" || records != want {
			t.Fatalf("after %d failed attempts and an append recovered snapshot %q and %q, want GOOD and %q", attempt, snap, records, want)
		}
	}
	errors := 0
	for _, e := range m.Recorder().Snapshot() {
		if e.Kind == obs.EventCompactError && strings.Contains(fmt.Sprint(e.Fields["error"]), boom.Error()) {
			errors++
		}
	}
	if errors != 2 {
		t.Fatalf("%d %s events carrying the error text in %v, want 2", errors, obs.EventCompactError, m.Recorder().Snapshot())
	}

	// Abandon w (no Close: the crash) and recover from the directory
	// itself. The reopened log must stamp above every frame it holds, so
	// its next compaction covers both sealed files and the tail.
	w2 := openTestWAL(t, dir)
	defer w2.Close()
	if snap, records := readSnapshot(t, w2), replayAll(t, w2); snap != "GOOD" || records != want {
		t.Fatalf("recovered snapshot %q and %q, want GOOD and %q", snap, records, want)
	}
	appendAll(t, w2, "post-5")
	if err := w2.Compact(snapshotOf("ALL")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w2, "post-6")
	if got := strings.Join(listDir(t, dir), ","); got != snapshotName(4)+","+logName {
		t.Fatalf("the compaction that landed left %s, want one snapshot beside one log", got)
	}
	if snap, records := recovered(); snap != "ALL" || records != "post-6" {
		t.Fatalf("after the landed compaction recovered snapshot %q and %q", snap, records)
	}
}

// TestWALSizeGaugeSumsLogs: every WAL instrumented on one registry
// feeds the same wal_size_bytes series, so an in-process shard pool
// reads as the sum of its logs, not as whichever registered first.
func TestWALSizeGaugeSumsLogs(t *testing.T) {
	m := obs.New()
	a := openTestWAL(t, t.TempDir())
	defer a.Close()
	b := openTestWAL(t, t.TempDir())
	defer b.Close()
	appendAll(t, a, "logged before Instrument")
	a.Instrument(m)
	b.Instrument(m)
	appendAll(t, a, "alpha")
	appendAll(t, b, "bravo", "charlie-charlie")
	if a.Size() == 0 || b.Size() == 0 || a.Size() == b.Size() {
		t.Fatalf("want two distinct nonzero sizes, got %d and %d", a.Size(), b.Size())
	}
	if got, want := gaugeValue(t, m, "wal_size_bytes"), float64(a.Size()+b.Size()); got != want {
		t.Fatalf("wal_size_bytes = %v, want the sum %v", got, want)
	}
	a.Instrument(m) // re-instrumenting must not count a's bytes twice
	if err := a.Compact(snapshotOf("")); err != nil {
		t.Fatal(err)
	}
	if got, want := gaugeValue(t, m, "wal_size_bytes"), float64(b.Size()); got != want {
		t.Fatalf("wal_size_bytes = %v after compacting one log, want the other's %v", got, want)
	}
}

// TestWALReplayIsAppendOrder: one log, so replay is the order records
// were appended, including after a crash (no Close).
func TestWALReplayIsAppendOrder(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	var want []string
	for i := 0; i < 12; i++ {
		want = append(want, fmt.Sprintf("rec-%02d", i))
	}
	appendAll(t, w, want...)
	// Abandon w: the crash.
	w2, err := OpenLog(dir, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayAll(t, w2); got != strings.Join(want, ",") {
		t.Fatalf("replayed %s\nwant the append sequence %s", got, strings.Join(want, ","))
	}
}

// TestWALGroupCommitCoversEveryFrame drives FsyncBatch from several
// goroutines at once, so leaders do commit followers' frames: every
// acknowledged frame must be covered by exactly one completed fsync
// (the group sizes sum to the appends), each group must be one write
// and one fsync, no append may cost more than one of each, and all of
// it must be on disk.
func TestWALGroupCommitCoversEveryFrame(t *testing.T) {
	const writers, each = 8, 40
	dir := t.TempDir()
	w, ff, m := openFaulty(t, dir, FsyncBatch)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.Hold(false)
				err := w.AppendMeta([]byte(fmt.Sprintf("writer-%d-frame-%02d", g, i)))
				w.Release(false)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hists := m.TakeSnapshot().Histograms
	groups, fsyncs := hists["wal_group_commit_frames"], hists["wal_fsync_seconds"]
	if appends := hists["wal_append_seconds"].Count; appends != writers*each {
		t.Fatalf("%d appends acknowledged, want %d", appends, writers*each)
	}
	if groups.Sum != writers*each {
		t.Fatalf("fsyncs covered %v frames in %d groups, want exactly the %d appended", groups.Sum, groups.Count, writers*each)
	}
	if fsyncs.Count != groups.Count || fsyncs.Count > writers*each {
		t.Fatalf("%d fsyncs for %d groups and %d appends", fsyncs.Count, groups.Count, writers*each)
	}
	if writes := ff.writes.Load(); writes != int64(groups.Count) || ff.syncs.Load() != int64(fsyncs.Count) {
		t.Fatalf("%d writes and %d syncs of the file for %d groups, want one of each a group", writes, ff.syncs.Load(), groups.Count)
	}
	if got := gaugeValue(t, m, "wal_append_errors_total"); got != 0 {
		t.Fatalf("wal_append_errors_total = %v", got)
	}
	t.Logf("%d frames in %d fsyncs", writers*each, fsyncs.Count)

	// Abandon w; per-writer order is append order, so each writer's
	// frames must come back complete and ascending.
	w2, err := OpenLog(dir, FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	checkWriters(t, replayAll(t, w2), writers, each)
}

// TestWALSyncSharesTheGroupCommitPath: Sync — what a compaction's cut
// and Close under FsyncBatch flush with — is a syncUpTo of the current
// frontier. A frontier already covered costs no fsync, and one fsync
// covers every frame written since the last.
func TestWALSyncSharesTheGroupCommitPath(t *testing.T) {
	fsyncs := func(m *obs.Metrics) (count uint64, frames int64) {
		hists := m.TakeSnapshot().Histograms
		return hists["wal_fsync_seconds"].Count, hists["wal_group_commit_frames"].Sum
	}
	w, err := OpenLog(t.TempDir(), FsyncOff) // appends sync nothing themselves
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m := obs.New()
	w.Instrument(m)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, _ := fsyncs(m); n != 0 {
		t.Fatalf("%d fsyncs of a log nothing was written to", n)
	}
	appendAll(t, w, "a", "b", "c")
	for i := 0; i < 2; i++ { // the second finds the frontier covered
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if n, frames := fsyncs(m); n != 1 || frames != 3 {
		t.Fatalf("%d fsyncs covering %d frames after 3 appends and 2 Syncs, want 1 covering 3", n, frames)
	}
	appendAll(t, w, "d", "e")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, frames := fsyncs(m); n != 2 || frames != 5 {
		t.Fatalf("%d fsyncs covering %d frames after 2 more appends and a Sync, want 2 covering 5", n, frames)
	}
}

// TestOpenWALRefusesStripedLayout: a directory a killed pre-one-log
// process left holds committed records in files this build does not
// read. Opening must say which file and change nothing — no wal.log
// beside it, no leftover removed.
func TestOpenWALRefusesStripedLayout(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"stripe-00.wal": "",
		"stripe-03.wal": "committed frames of the old layout",
		"meta.wal":      "",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := OpenLog(dir, FsyncOff)
	if err == nil {
		w.Close()
		t.Fatal("opened a directory holding a non-empty stripe-03.wal")
	}
	if !strings.Contains(err.Error(), filepath.Join(dir, "stripe-03.wal")) {
		t.Fatalf("the refusal does not name the file: %v", err)
	}
	if got := strings.Join(listDir(t, dir), ","); got != "meta.wal,stripe-00.wal,stripe-03.wal" {
		t.Fatalf("the refused open left %s", got)
	}
	if blob, err := os.ReadFile(filepath.Join(dir, "stripe-03.wal")); err != nil || string(blob) != "committed frames of the old layout" {
		t.Fatalf("stripe-03.wal now reads %q (%v)", blob, err)
	}
}

// listDir returns the sorted names in dir.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"occusim/internal/obs"
	"occusim/internal/wire"
)

// openTestWAL opens a 2-stripe WAL with no explicit syncing — the
// policy under which recovery guarantees are weakest, so every pass
// here holds a fortiori for batch and interval.
func openTestWAL(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, 2, FsyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// appendAll logs each payload to the stripe under its own Begin guard.
func appendAll(t *testing.T, w *WAL, stripe int, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		end := w.Begin()
		err := w.Append(stripe, []byte(p))
		end()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// replayAll collects every live record per stripe (and the meta log).
func replayAll(t *testing.T, w *WAL) (metas []string, stripes map[int][]string) {
	t.Helper()
	stripes = map[int][]string{}
	err := w.Replay(
		func(p []byte) error { metas = append(metas, string(p)); return nil },
		func(i int, p []byte) error { stripes[i] = append(stripes[i], string(p)); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	return metas, stripes
}

func TestWALEmptyReplay(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	metas, stripes := replayAll(t, w)
	if len(metas) != 0 || len(stripes[0]) != 0 || len(stripes[1]) != 0 {
		t.Fatalf("fresh WAL replayed records: meta=%v stripes=%v", metas, stripes)
	}
	if _, ok, err := w.Snapshot(); ok || err != nil {
		t.Fatalf("fresh WAL has a snapshot (ok=%v err=%v)", ok, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen over the same (still empty) files.
	w2 := openTestWAL(t, dir)
	defer w2.Close()
	if metas, stripes := replayAll(t, w2); len(metas) != 0 || len(stripes[0]) != 0 {
		t.Fatalf("reopened empty WAL replayed records")
	}
}

// frameHeaderLen is the log frame's fixed prefix.
const frameHeaderLen = wire.LogFrameHeaderLen

// frameLen is the on-disk size of one frame carrying payload p.
func frameLen(p string) int { return frameHeaderLen + len(p) }

// TestWALTornFinalRecord cuts the stripe file at every interesting
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
			appendAll(t, w, 0, payloads...)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "stripe-00.wal")
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}
			w2 := openTestWAL(t, dir)
			defer w2.Close()
			_, stripes := replayAll(t, w2)
			want := payloads[:2:2]
			if got := stripes[0]; strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("recovered %v, want %v", got, want)
			}
			// The torn tail must be gone from disk…
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(prefix) {
				t.Fatalf("file not repaired: size %d, want %d (err %v)", fi.Size(), prefix, err)
			}
			// …and appends must continue from the clean boundary.
			appendAll(t, w2, 0, "delta")
			_, stripes = replayAll(t, w2)
			want = append(want, "delta")
			if got := stripes[0]; strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("after repair+append recovered %v, want %v", got, want)
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
	appendAll(t, w, 0, "first", "second", "third")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stripe-00.wal")
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
	err = w2.Replay(
		func([]byte) error { return nil },
		func(int, []byte) error { return nil },
	)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt middle record replayed without a loud failure: %v", err)
	}
}

// TestWALSnapshotBarrier: records appended before a compaction carry
// the old generation and must be skipped once the snapshot exists —
// including when the post-snapshot truncation never happened (the
// crash-between-rename-and-truncate window).
func TestWALSnapshotBarrier(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	appendAll(t, w, 0, "pre-1", "pre-2")
	if err := w.Compact(func(out io.Writer) error {
		_, err := out.Write([]byte("SNAPSHOT"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 0, "post-1")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir)
	r, ok, err := w2.Snapshot()
	if err != nil || !ok {
		t.Fatalf("snapshot missing after compact (ok=%v err=%v)", ok, err)
	}
	blob, _ := io.ReadAll(r)
	r.Close()
	if !bytes.Equal(blob, []byte("SNAPSHOT")) {
		t.Fatalf("snapshot content %q", blob)
	}
	_, stripes := replayAll(t, w2)
	if got := strings.Join(stripes[0], ","); got != "post-1" {
		t.Fatalf("replay after compact returned %q, want only the tail", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window: a snapshot newer than every log record, with the
	// logs never truncated. Simulate by writing a higher-generation
	// snapshot next to a log full of old-generation records.
	dir2 := t.TempDir()
	w3 := openTestWAL(t, dir2)
	appendAll(t, w3, 0, "stale-1", "stale-2")
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
	_, stripes = replayAll(t, w4)
	if len(stripes[0]) != 0 {
		t.Fatalf("records below the snapshot generation replayed: %v", stripes[0])
	}
}

// TestWALRandomCrashPointReplay is the crash-point fuzz: a log of known
// records cut at arbitrary byte offsets must always recover exactly the
// longest whole-frame prefix, never an error, never a reordering.
func TestWALRandomCrashPointReplay(t *testing.T) {
	const records = 20
	src := t.TempDir()
	w, err := OpenWAL(src, 1, FsyncOff, 0)
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
	appendAll(t, w, 0, payloads...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(src, "stripe-00.wal"))
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
		if err := os.WriteFile(filepath.Join(dir, "stripe-00.wal"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wc, err := OpenWAL(dir, 1, FsyncOff, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		err = wc.Replay(
			func([]byte) error { return nil },
			func(_ int, p []byte) error { got = append(got, string(p)); return nil },
		)
		if err != nil {
			t.Fatalf("cut=%d: replay failed: %v", cut, err)
		}
		if strings.Join(got, ",") != strings.Join(payloads[:wantN], ",") {
			t.Fatalf("cut=%d: recovered %d records %v, want prefix of %d", cut, len(got), got, wantN)
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
// flight-recorded as an error, and must leave the old snapshot and the
// full log recovering exactly what they held.
func TestWALCompactFailureIsCountedAndHarmless(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	m := obs.New()
	w.Instrument(m)
	appendAll(t, w, 0, "pre-1")
	if err := w.Compact(func(out io.Writer) error {
		_, err := out.Write([]byte("GOOD"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, 0, "post-1", "post-2")
	appendAll(t, w, 1, "other")
	sizeBefore := w.Size()

	boom := fmt.Errorf("disk full (injected)")
	err := w.Compact(func(out io.Writer) error {
		_, _ = out.Write([]byte("HALF-WRITTEN"))
		return boom
	})
	if err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("failed snapshot write returned %v", err)
	}
	if got := gaugeValue(t, m, "wal_compactions_total"); got != 1 {
		t.Fatalf("wal_compactions_total = %v after one success and one failure, want 1", got)
	}
	if got := gaugeValue(t, m, "wal_compact_errors_total"); got != 1 {
		t.Fatalf("wal_compact_errors_total = %v, want 1", got)
	}
	var recorded bool
	for _, e := range m.Recorder().Snapshot() {
		if e.Kind == obs.EventCompactError && e.Fields["error"] == boom.Error() {
			recorded = true
		}
	}
	if !recorded {
		t.Fatalf("no %s event carrying the error text in %v", obs.EventCompactError, m.Recorder().Snapshot())
	}
	if w.Size() != sizeBefore {
		t.Fatalf("failed compaction moved the log size: %d → %d", sizeBefore, w.Size())
	}
	// Abandon w (no Close: the crash) and recover from the directory.
	w2 := openTestWAL(t, dir)
	defer w2.Close()
	r, ok, err := w2.Snapshot()
	if err != nil || !ok {
		t.Fatalf("old snapshot gone (ok=%v err=%v)", ok, err)
	}
	blob, _ := io.ReadAll(r)
	r.Close()
	if string(blob) != "GOOD" {
		t.Fatalf("snapshot is %q, want the last successful one", blob)
	}
	_, stripes := replayAll(t, w2)
	if got := strings.Join(stripes[0], ",") + "|" + strings.Join(stripes[1], ","); got != "post-1,post-2|other" {
		t.Fatalf("recovered %q, want the full log since the good snapshot", got)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(leftovers) != 0 {
		t.Fatalf("failed compaction left temp files: %v", leftovers)
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
	appendAll(t, a, 0, "logged before Instrument")
	a.Instrument(m)
	b.Instrument(m)
	appendAll(t, a, 1, "alpha")
	appendAll(t, b, 0, "bravo", "charlie-charlie")
	if a.Size() == 0 || b.Size() == 0 || a.Size() == b.Size() {
		t.Fatalf("want two distinct nonzero sizes, got %d and %d", a.Size(), b.Size())
	}
	if got, want := gaugeValue(t, m, "wal_size_bytes"), float64(a.Size()+b.Size()); got != want {
		t.Fatalf("wal_size_bytes = %v, want the sum %v", got, want)
	}
	a.Instrument(m) // re-instrumenting must not count a's bytes twice
	if err := a.Compact(func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got, want := gaugeValue(t, m, "wal_size_bytes"), float64(b.Size()); got != want {
		t.Fatalf("wal_size_bytes = %v after compacting one log, want the other's %v", got, want)
	}
}

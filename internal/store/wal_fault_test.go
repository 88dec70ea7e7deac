package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"occusim/internal/obs"
	"occusim/internal/raceflag"
)

// faultFile is the test side of the log-file seam: it counts the WAL's
// writes and syncs on wal.log and lets a test fail either. onWrite sees
// the 1-based write count and the group; a non-nil error puts only the
// first keep bytes into the file and returns it — a short write. onSync
// sees the 1-based sync count; a non-nil error is returned in place of
// the sync. Both are set before the log is shared.
type faultFile struct {
	logFile
	writes, syncs atomic.Int64
	onWrite       func(n int64, p []byte) (keep int, err error)
	onSync        func(n int64) error
}

func (f *faultFile) Write(p []byte) (int, error) {
	n := f.writes.Add(1)
	if f.onWrite != nil {
		if keep, err := f.onWrite(n, p); err != nil {
			written, _ := f.logFile.Write(p[:keep])
			return written, err
		}
	}
	return f.logFile.Write(p)
}

func (f *faultFile) Sync() error {
	n := f.syncs.Add(1)
	if f.onSync != nil {
		if err := f.onSync(n); err != nil {
			return err
		}
	}
	return f.logFile.Sync()
}

// openFaulty opens a log under policy with a faultFile over its wal.log,
// instrumented on a fresh registry.
func openFaulty(t *testing.T, dir string, policy FsyncPolicy) (*WAL, *faultFile, *obs.Metrics) {
	t.Helper()
	w, err := OpenLog(dir, policy, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{logFile: w.f}
	w.f = ff
	m := obs.New()
	w.Instrument(m)
	return w, ff, m
}

// FailLogSyncs wraps the wal.log of every log opened until t ends in a
// faultFile whose syncs fail with EIO once the returned arm is called.
// It is the seam for the tests above the store (package store_test),
// which reach a log only through the server that opens it.
func FailLogSyncs(t testing.TB) (arm func()) {
	var armed atomic.Bool
	open := openLogFile
	openLogFile = func(path string) (logFile, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		return &faultFile{logFile: f, onSync: func(int64) error {
			if armed.Load() {
				return syscall.EIO
			}
			return nil
		}}, nil
	}
	t.Cleanup(func() { openLogFile = open })
	return func() { armed.Store(true) }
}

// appendAsync logs payload under a shared guard on its own goroutine and
// delivers the result.
func appendAsync(w *WAL, payload string) <-chan error {
	done := make(chan error, 1)
	go func() {
		w.Hold(false)
		defer w.Release(false)
		done <- w.AppendMeta([]byte(payload))
	}()
	return done
}

// waitAppended waits until n frames have been appended to the log, so
// that the appenders in flight are queued behind the sync a test holds.
// It only arranges the interleaving: at the deadline the test goes on
// and checks its outcome all the same.
func waitAppended(t *testing.T, w *WAL, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		got := w.writeSeq
		w.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Logf("%d frames appended after 5 s, want %d", got, n)
			return
		}
	}
}

// TestWALShortWriteStopsTheLog: a write that puts only part of a
// two-frame group into wal.log fails both of the group's appenders and
// every later append, writes nothing after the torn bytes, and a reopen
// replays exactly the frames acknowledged before it — the torn group is
// discarded as a torn final frame, and the log appends again.
func TestWALShortWriteStopsTheLog(t *testing.T) {
	dir := t.TempDir()
	w, ff, m := openFaulty(t, dir, FsyncBatch)
	appendAll(t, w, "ack-1")

	// Hold the leader of "ack-2" inside its sync so that "lost-a" and
	// "lost-b" queue behind it and form the next group.
	entered, release := make(chan struct{}), make(chan struct{})
	ff.onSync = func(n int64) error {
		if n == 2 {
			close(entered)
			<-release
		}
		return nil
	}
	const keep = frameHeaderLen + 2 // inside the group's first frame
	ff.onWrite = func(n int64, p []byte) (int, error) {
		if n == 3 {
			return keep, syscall.ENOSPC
		}
		return 0, nil
	}
	ack2 := appendAsync(w, "ack-2")
	<-entered
	lostA, lostB := appendAsync(w, "lost-a"), appendAsync(w, "lost-b")
	waitAppended(t, w, 4)
	close(release)
	if err := <-ack2; err != nil {
		t.Fatalf("ack-2, synced before the failure: %v", err)
	}
	for name, done := range map[string]<-chan error{"lost-a": lostA, "lost-b": lostB} {
		if err := <-done; !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("%s, in the group the short write tore, returned %v, want ENOSPC", name, err)
		}
	}
	if err := appendAsync(w, "after"); !errors.Is(<-err, syscall.ENOSPC) {
		t.Error("an append after the failed write was not refused with its error")
	}
	if got := ff.writes.Load(); got != 3 {
		t.Errorf("%d writes, want 3: nothing after the short one", got)
	}
	if got := gaugeValue(t, m, "wal_append_errors_total"); got != 3 {
		t.Errorf("wal_append_errors_total = %v, want 3: the group's two and the refused one", got)
	}
	acked := frameLen("ack-1") + frameLen("ack-2")
	if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() != int64(acked+keep) {
		t.Fatalf("wal.log holds %d bytes (%v), want the %d acknowledged and the %d torn", fi.Size(), err, acked, keep)
	}
	if err := w.Compact(snapshotOf("")); err == nil {
		t.Error("a stopped log compacted, sealing its torn bytes")
	}
	_ = w.Close()

	w2 := openTestWAL(t, dir)
	defer w2.Close()
	if got := replayAll(t, w2); got != "ack-1,ack-2" {
		t.Fatalf("reopened log replayed %q, want the acknowledged ack-1,ack-2", got)
	}
	appendAll(t, w2, "ack-3")
	if got := replayAll(t, w2); got != "ack-1,ack-2,ack-3" {
		t.Fatalf("after the reopen and an append replayed %q", got)
	}
}

// TestWALFailedSyncIsNotRetried: a leader's failed fdatasync fails the
// follower queued behind it too — syncing again could return success
// for pages the kernel dropped after the failure — and every later
// append; the log syncs no more.
func TestWALFailedSyncIsNotRetried(t *testing.T) {
	w, ff, m := openFaulty(t, t.TempDir(), FsyncBatch)
	defer w.Close()
	appendAll(t, w, "ack-1")

	entered, release := make(chan struct{}), make(chan struct{})
	ff.onSync = func(n int64) error {
		if n == 2 {
			close(entered)
			<-release
			return syscall.EIO
		}
		return nil
	}
	leader := appendAsync(w, "leader")
	<-entered
	follower := appendAsync(w, "follower")
	waitAppended(t, w, 3)
	close(release)
	if err := <-leader; !errors.Is(err, syscall.EIO) {
		t.Errorf("the leader whose sync failed returned %v, want EIO", err)
	}
	if err := <-follower; !errors.Is(err, syscall.EIO) {
		t.Errorf("the follower queued behind the failed sync returned %v, want EIO", err)
	}
	if err := <-appendAsync(w, "after"); !errors.Is(err, syscall.EIO) {
		t.Errorf("an append after the failed sync returned %v, want EIO", err)
	}
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Sync after the failed sync returned %v, want EIO", err)
	}
	if got := ff.syncs.Load(); got != 2 {
		t.Errorf("%d syncs, want 2: the failed one is never retried", got)
	}
	if got := gaugeValue(t, m, "wal_append_errors_total"); got != 3 {
		t.Errorf("wal_append_errors_total = %v, want 3: leader, follower and the refused one", got)
	}
}

// TestWALOffWritesBeforeReturning: under FsyncOff an append returns with
// its frame in wal.log as a reader of the path sees it — kill -9 loses
// nothing acknowledged — while concurrent appenders share writes; each
// writer's frames replay complete and in order.
func TestWALOffWritesBeforeReturning(t *testing.T) {
	const writers, each = 8, 25
	dir := t.TempDir()
	w, ff, _ := openFaulty(t, dir, FsyncOff)
	path := filepath.Join(dir, logName)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := fmt.Sprintf("writer-%d-frame-%02d", g, i)
				w.Hold(false)
				err := w.AppendMeta([]byte(rec))
				w.Release(false)
				if err != nil {
					t.Error(err)
					return
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Contains(data, []byte(rec)) {
					t.Errorf("%s returned but is not in %s", rec, logName)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := ff.writes.Load(); got < 1 || got > writers*each {
		t.Fatalf("%d writes for %d appends", got, writers*each)
	}
	t.Logf("%d frames in %d writes", writers*each, ff.writes.Load())

	// Abandon w: the kill.
	w2 := openTestWAL(t, dir)
	defer w2.Close()
	checkWriters(t, replayAll(t, w2), writers, each)
}

// checkWriters asserts that each of writers' frames, named
// writer-G-frame-II, were replayed complete and in append order.
func checkWriters(t *testing.T, replayed string, writers, each int) {
	t.Helper()
	next := make([]int, writers)
	for _, rec := range strings.Split(replayed, ",") {
		var g, i int
		if _, err := fmt.Sscanf(rec, "writer-%d-frame-%d", &g, &i); err != nil || g < 0 || g >= writers || i != next[g] {
			t.Fatalf("replayed %q out of order (%v)", rec, err)
		}
		next[g]++
	}
	for g, n := range next {
		if n != each {
			t.Fatalf("writer %d replayed %d of %d frames", g, n, each)
		}
	}
}

// TestAllocBudgetWALAppend pins a warm AppendMeta, instrumented and
// under its own Hold/Release guard, at 0 allocations under every policy:
// the guard takes no func value, the frame goes into a pending buffer
// and two buffers trade places between writes. A buffer an outsized
// record grew is not kept past its write. `make allocs` runs it.
func TestAllocBudgetWALAppend(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	payload := bytes.Repeat([]byte("r"), 1400) // an 11-report observation record
	for _, policy := range []FsyncPolicy{FsyncBatch, FsyncInterval, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			w, err := OpenLog(t.TempDir(), policy, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := w.Close(); err != nil {
					t.Error(err)
				}
			}()
			w.Instrument(obs.New())
			appendOne := func(p []byte) {
				w.Hold(false)
				defer w.Release(false)
				if err := w.AppendMeta(p); err != nil {
					t.Fatal(err)
				}
			}
			warm := func() float64 {
				for i := 0; i < 3; i++ {
					appendOne(payload)
				}
				return testing.AllocsPerRun(50, func() { appendOne(payload) })
			}
			if got := warm(); got != 0 {
				t.Fatalf("a warm append allocates %v times, want 0", got)
			}
			appendOne(make([]byte, 2*maxKeptGroup)) // a model snapshot
			if got := warm(); got != 0 {
				t.Fatalf("a warm append after an outsized record allocates %v times, want 0", got)
			}
			w.wmu.Lock()
			w.mu.Lock()
			kept := max(cap(w.pending), cap(w.spare))
			w.mu.Unlock()
			w.wmu.Unlock()
			if kept > maxKeptGroup {
				t.Fatalf("the log keeps a %d-byte buffer an outsized record grew", kept)
			}
		})
	}
}

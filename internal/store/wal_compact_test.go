package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenWALSweepsSnapshotTemps: a process killed while it wrote a
// snapshot leaves the temp file WriteFileAtomic was filling. Nothing
// reads it and Compact's reclaim does not match its name, so opening
// the directory — when no other writer can exist — removes it, and
// nothing else.
func TestOpenWALSweepsSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	appendAll(t, w, "pre")
	if err := w.Compact(snapshotOf("KEPT")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, "tail")
	// Abandon w mid-"snapshot": the crash.
	for _, name := range []string{snapshotName(2) + ".tmp-123456", snapshotName(7) + ".tmp-1"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w2 := openTestWAL(t, dir)
	defer w2.Close()
	if got := strings.Join(listDir(t, dir), ","); got != snapshotName(1)+","+logName {
		t.Fatalf("the open left %s, want the snapshot and the log alone", got)
	}
	if snap, records := readSnapshot(t, w2), replayAll(t, w2); snap != "KEPT" || records != "tail" {
		t.Fatalf("recovered snapshot %q and %q", snap, records)
	}
}

// crashTable drives one log with an appender that never stops and takes
// copies of the data directory at the points a crash can fall.
//
// Records are "r-<i>", appended in order by one goroutine; applied counts
// those whose log-then-apply operation has completed, issued those it
// has started. The owner's state is the count applied, so a cut's
// snapshot is that number, and a recovered directory is exact when the
// snapshot's n followed by the replayed records is the unbroken run
// r-n … r-(k-1) for some k between what was applied when the copy began
// and what had been issued when it ended.
type crashTable struct {
	t               *testing.T
	dir             string
	w               *WAL
	applied, issued atomic.Int64
	stop            chan struct{}
	done            sync.WaitGroup
}

func startCrashTable(t *testing.T) *crashTable {
	c := &crashTable{t: t, dir: t.TempDir(), stop: make(chan struct{})}
	c.w = openTestWAL(t, c.dir)
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		for i := int64(0); ; i++ {
			select {
			case <-c.stop:
				return
			default:
			}
			c.issued.Add(1)
			c.w.Hold(false)
			err := c.w.AppendMeta([]byte("r-" + strconv.FormatInt(i, 10)))
			if err == nil {
				c.applied.Add(1)
			}
			c.w.Release(false)
			if err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			// Paced, so the copies the test takes and replays stay small.
			time.Sleep(20 * time.Microsecond)
		}
	}()
	return c
}

// awaitAppends returns once n more records have been applied: the
// appender is running, whatever the caller is in the middle of.
func (c *crashTable) awaitAppends(n int64) {
	for target := c.applied.Load() + n; c.applied.Load() < target; {
		runtime.Gosched()
	}
}

// crashCopy is a copy of the directory and the bounds on what it must
// recover.
type crashCopy struct {
	dir    string
	lo, hi int64
}

func (c *crashTable) copy() crashCopy {
	lo := c.applied.Load()
	dir := copyDir(c.t, c.dir)
	return crashCopy{dir: dir, lo: lo, hi: c.issued.Load()}
}

// compact runs one compaction whose snapshot writer calls during once
// the cut is behind it and appends are flowing again — with half the
// snapshot in the temp file — and fails the write when fail is set.
func (c *crashTable) compact(during func(), fail bool) error {
	return c.w.Compact(func() func(io.Writer) error {
		n := strconv.FormatInt(c.applied.Load(), 10)
		return func(out io.Writer) error {
			if _, err := io.WriteString(out, n[:len(n)/2]); err != nil {
				return err
			}
			c.awaitAppends(5)
			if during != nil {
				during()
			}
			if fail {
				return fmt.Errorf("disk full (injected)")
			}
			_, err := io.WriteString(out, n[len(n)/2:])
			return err
		}
	})
}

// recoverRun opens dir and returns the run of records it recovers as
// [from, to): the snapshot's count, then every replayed record in turn.
func recoverRun(t *testing.T, dir string) (w *WAL, from, to int64) {
	t.Helper()
	w = openTestWAL(t, dir)
	if snap := readSnapshot(t, w); snap != "" {
		n, err := strconv.ParseInt(snap, 10, 64)
		if err != nil {
			t.Fatalf("snapshot %q: %v", snap, err)
		}
		from = n
	}
	to = from
	err := w.ReplayLive(func(p []byte) error {
		if want := "r-" + strconv.FormatInt(to, 10); string(p) != want {
			return fmt.Errorf("replayed %q where %s was due", p, want)
		}
		to++
		return nil
	})
	if err != nil {
		t.Fatalf("%s (holding %v): %v", dir, listDir(t, dir), err)
	}
	return w, from, to
}

// verify requires the copy to recover exactly what was acknowledged when
// it was taken, and then to carry on: an append and a compaction over
// the recovered log leave one snapshot beside one log that hold it all.
func (cc crashCopy) verify(t *testing.T, row string) {
	t.Helper()
	held := listDir(t, cc.dir)
	w, from, to := recoverRun(t, cc.dir)
	if to < cc.lo || to > cc.hi {
		t.Fatalf("%s: %v recovered r-%d … r-%d, but %d records were acknowledged before the copy and %d issued by its end", row, held, from, to-1, cc.lo, cc.hi)
	}
	appendAll(t, w, "r-"+strconv.FormatInt(to, 10))
	if err := w.Compact(snapshotOf(strconv.FormatInt(to+1, 10))); err != nil {
		t.Fatalf("%s: %v", row, err)
	}
	appendAll(t, w, "r-"+strconv.FormatInt(to+1, 10))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := listDir(t, cc.dir); len(got) != 2 || got[1] != logName || !strings.HasSuffix(got[0], ".snap") {
		t.Fatalf("%s: the recovered log compacted to %v, want one snapshot beside one log", row, got)
	}
	w2, from2, to2 := recoverRun(t, cc.dir)
	defer w2.Close()
	if from2 != to+1 || to2 != to+2 {
		t.Fatalf("%s: after a compaction over the recovered log it holds r-%d … r-%d, want the snapshot at %d and one record", row, from2, to2-1, to+1)
	}
}

// landed copies the newest snapshot of the live directory into the copy:
// with the files the copy already holds — the old snapshot, the sealed
// log, wal.log — that is the directory between the snapshot's rename and
// the reclaim, which no hook can reach.
func (c *crashTable) landed(cc crashCopy) crashCopy {
	c.t.Helper()
	_, path, err := c.w.newestSnapshot()
	if err != nil || path == "" {
		c.t.Fatalf("no landed snapshot (%v)", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		c.t.Fatal(err)
	}
	dst := copyDir(c.t, cc.dir)
	if err := os.WriteFile(filepath.Join(dst, filepath.Base(path)), data, 0o644); err != nil {
		c.t.Fatal(err)
	}
	return crashCopy{dir: dst, lo: cc.lo, hi: cc.hi}
}

// TestWALCrashTable walks the crash table of a compaction while appends
// continue: a copy of the directory taken before the cut, after the cut
// with the snapshot half-written, between the snapshot's rename and the
// reclaim, and after the reclaim must each recover exactly what was
// acknowledged when it was taken — through a failed landing and the
// compaction after it as well. Only wal.log may be torn: a torn tail
// repairs, damage in a sealed file fails loudly.
func TestWALCrashTable(t *testing.T) {
	c := startCrashTable(t)
	defer func() {
		close(c.stop)
		c.done.Wait()
		c.w.Close()
	}()

	for round := 1; round <= 2; round++ {
		c.awaitAppends(20)
		c.copy().verify(t, fmt.Sprintf("round %d, before the cut", round))

		var cut crashCopy
		if err := c.compact(func() { cut = c.copy() }, false); err != nil {
			t.Fatal(err)
		}
		if held := listDir(t, cut.dir); len(held) != 3+min(round-1, 1) || !strings.Contains(held[len(held)-3], ".tmp-") {
			t.Fatalf("round %d: the copy behind the cut holds %v, want the sealed log, the temp file and wal.log", round, held)
		}
		between := c.landed(cut)
		after := c.copy()
		cut.verify(t, fmt.Sprintf("round %d, after the cut", round))
		between.verify(t, fmt.Sprintf("round %d, between landing and reclaim", round))
		after.verify(t, fmt.Sprintf("round %d, after the reclaim", round))
	}

	// A landing that fails leaves the second row in a live process; the
	// next attempt seals again and its snapshot covers both files.
	var failed, again crashCopy
	if err := c.compact(nil, true); err == nil {
		t.Fatal("the injected failure did not surface")
	}
	c.awaitAppends(20)
	failed = c.copy()
	if err := c.compact(func() { again = c.copy() }, false); err != nil {
		t.Fatal(err)
	}
	if sealed, _ := filepath.Glob(filepath.Join(again.dir, "wal-*.sealed")); len(sealed) != 2 {
		t.Fatalf("the attempt after a failed landing sealed %v, want a second file beside the first", sealed)
	}
	between := c.landed(again)
	after := c.copy()

	// Damage, on further copies of the directory holding two sealed logs.
	torn := crashCopy{dir: copyDir(t, again.dir), lo: again.lo - 1, hi: again.hi}
	fi, err := os.Stat(filepath.Join(torn.dir, logName))
	if err != nil || fi.Size() < 4 {
		t.Fatalf("vacuous: wal.log behind the cut is empty (%v)", err)
	}
	if err := os.Truncate(filepath.Join(torn.dir, logName), fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(data []byte) []byte{
		"a flipped byte":     func(data []byte) []byte { data[len(data)/2] ^= 0x10; return data },
		"a torn final frame": func(data []byte) []byte { return data[:len(data)-3] },
	} {
		dir := copyDir(t, again.dir)
		sealed, _ := filepath.Glob(filepath.Join(dir, "wal-*.sealed"))
		data, err := os.ReadFile(sealed[0])
		if err != nil || len(data) < 4 {
			t.Fatalf("vacuous: %s is empty (%v)", sealed[0], err)
		}
		if err := os.WriteFile(sealed[0], damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
		w := openTestWAL(t, dir)
		err = w.ReplayLive(func([]byte) error { return nil })
		w.Close()
		if err == nil || !strings.Contains(err.Error(), filepath.Base(sealed[0])) {
			t.Fatalf("%s in a sealed log replayed with %v, want a failure naming the file", name, err)
		}
	}

	failed.verify(t, "after a failed landing")
	again.verify(t, "after the cut that follows a failed landing")
	between.verify(t, "between landing and reclaim, two sealed logs")
	after.verify(t, "after the reclaim of two sealed logs")
	torn.verify(t, "a torn tail on wal.log behind the cut")
}

package store

import (
	"fmt"
	"strings"
	"testing"
)

// TestFrozenOpenWALRefusesNoStripes: the frozen open still refuses a
// stripe count below 1, and creates nothing when it does.
func TestFrozenOpenWALRefusesNoStripes(t *testing.T) {
	for _, stripes := range []int{0, -1} {
		dir := t.TempDir()
		if w, err := OpenWAL(dir, stripes, FsyncOff, 0); err == nil {
			w.Close()
			t.Fatalf("OpenWAL opened a log with %d stripes", stripes)
		}
		if names := listDir(t, dir); len(names) != 0 {
			t.Fatalf("the refused open left %v", names)
		}
	}
}

// TestFrozenAppendIsAppendMeta: Append refuses an index outside
// [0, stripes) and, inside it, logs exactly what AppendMeta logs — the
// two interleaved replay in append order through either replay, and
// Replay's second callback is never called.
func TestFrozenAppendIsAppendMeta(t *testing.T) {
	const stripes = 4
	dir := t.TempDir()
	w, err := OpenWAL(dir, stripes, FsyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, stripes} {
		end := w.Begin()
		err := w.Append(idx, []byte("out of range"))
		end()
		if err == nil {
			t.Fatalf("Append accepted index %d of %d stripes", idx, stripes)
		}
	}
	var want []string
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("rec-%02d", i)
		want = append(want, p)
		end := w.Begin()
		if i%3 == 0 {
			err = w.AppendMeta([]byte(p))
		} else {
			err = w.Append((7*i)%stripes, []byte(p))
		}
		end()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Abandon w: the crash.
	w2, err := OpenWAL(dir, stripes, FsyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var got []string
	err = w2.Replay(
		func(p []byte) error { got = append(got, string(p)); return nil },
		func(i int, p []byte) error {
			t.Errorf("record %q replayed through the index callback (%d)", p, i)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(got, ","), strings.Join(want, ","); g != w {
		t.Fatalf("Replay gave %s\nwant the append sequence %s", g, w)
	}
	if live := replayAll(t, w2); live != strings.Join(want, ",") {
		t.Fatalf("ReplayLive gave %s\nwant the append sequence %s", live, strings.Join(want, ","))
	}
}

// Frozen surface: names only benchmark/ calls, which no change may edit,
// each a thin wrapper over its live form in wal.go. Retiring them is
// deleting this file and the WAL's stripes field.
package store

import (
	"fmt"
	"time"
)

// OpenWAL is OpenLog behind a stripe count of at least 1, which bounds
// the index Append accepts. Only benchmark/ calls it.
func OpenWAL(dir string, stripes int, policy FsyncPolicy, interval time.Duration) (*WAL, error) {
	if stripes < 1 {
		return nil, fmt.Errorf("store: wal needs at least 1 stripe")
	}
	w, err := OpenLog(dir, policy, interval)
	if err != nil {
		return nil, err
	}
	w.stripes = stripes
	return w, nil
}

// Append is AppendMeta behind a range check on the inert stripeIdx: there
// is one log, and nothing records the index. Only benchmark/ calls it.
func (w *WAL) Append(stripeIdx int, payload []byte) error {
	if stripeIdx < 0 || stripeIdx >= w.stripes {
		return fmt.Errorf("store: wal: stripe %d out of range", stripeIdx)
	}
	return w.AppendMeta(payload)
}

// Replay is ReplayLive; the second callback is never called. Only
// benchmark/ calls it.
func (w *WAL) Replay(apply func(payload []byte) error, _ func(idx int, payload []byte) error) error {
	return w.ReplayLive(apply)
}

// Begin is Hold(false) behind an end function, which allocates: the
// live callers pair Hold with Release instead. Only benchmark/ calls it.
func (w *WAL) Begin() (end func()) {
	w.Hold(false)
	return func() { w.Release(false) }
}

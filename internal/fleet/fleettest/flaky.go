// Package fleettest provides the shard doubles several packages share:
// the deterministic fault injector of the exactly-once pins (the fleet
// package's regression tests and cmd/loadgen's -flaky drill must
// exercise the identical lost-response hazard) and the slowed shard of
// the scenario library and the storm experiment. Each wrapper lives
// once, here, instead of drifting apart as copies, and each counts what
// it injected: the gateway delivers through IngestFrame alone, and a
// double that overrode anything else would be walked past in silence.
package fleettest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/fleet"
)

// FlakyShard injects deterministic IngestFrame failures around a real
// shard: every FailEvery-th call fails, alternating between failing
// BEFORE the inner shard saw the batch (a dropped request) and AFTER
// it committed (a lost response) — the second being the at-least-once
// hazard per-device sequence numbers exist for. All other Shard
// methods pass through, so health probes and state migration see the
// real shard. Safe for concurrent use.
type FlakyShard struct {
	fleet.Shard
	// FailEvery fails every n-th IngestFrame call; 0 never fails.
	FailEvery int

	mu       sync.Mutex
	calls    int
	injected int
}

// IngestFrame implements fleet.Shard's report path — the one the
// gateway delivers through — with the injected failure schedule.
func (f *FlakyShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	fail := f.FailEvery > 0 && n%f.FailEvery == 0
	if fail {
		f.injected++
	}
	f.mu.Unlock()
	if fail && (n/f.FailEvery)%2 == 1 {
		return nil, fmt.Errorf("flaky %s: injected failure before commit (call %d)", f.Name(), n)
	}
	rooms, err := f.Shard.IngestFrame(frame, reports)
	if err != nil {
		return nil, err
	}
	if fail {
		// The shard committed the whole frame; the caller never
		// hears about it and will retransmit.
		return nil, fmt.Errorf("flaky %s: injected failure after commit (call %d)", f.Name(), n)
	}
	return rooms, nil
}

// InjectedFailures counts the failures injected so far — assertions
// use it to reject a vacuous run where no fault actually fired.
func (f *FlakyShard) InjectedFailures() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// SlowShard stretches every delivery to a real shard by a fixed delay,
// standing in for a shard on the far side of a congested path, or one
// that pays a network hop and a disk touch per call. All other Shard
// methods pass through.
type SlowShard struct {
	fleet.Shard
	Delay time.Duration

	slept atomic.Int64
}

// IngestFrame implements fleet.Shard's report path, late.
func (s *SlowShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	time.Sleep(s.Delay)
	s.slept.Add(1)
	return s.Shard.IngestFrame(frame, reports)
}

// Slept counts the deliveries stretched so far — assertions use it to
// reject a vacuous run the gateway delivered past the double.
func (s *SlowShard) Slept() int64 { return s.slept.Load() }

package fleet

import (
	"sync"
	"time"

	"occusim/internal/wire"
)

// skewTracker maps per-device report times onto the building-wide
// report clock. The whole pipeline assumes transport.Report.AtSeconds
// is one shared clock: event ordering, dwell accounting and the
// ResidueTTL sweep all compare one device's times against another's. A
// phone two hours in the future would drag the gateway's high-water
// mark two hours forward and make the TTL sweep evict every honest
// device as residue; a phone two hours in the past would be swept
// itself on arrival.
//
// The tracker estimates a constant per-device offset instead of
// trusting the device: the first report from a device whose time is
// more than the skew window away from the building clock is snapped to
// "now", and the implied offset is subtracted from all its later
// reports. A device whose clock then STEPS forward (NTP jump, timezone
// fumble) past the window is re-anchored the same way. Offsets are
// stable once estimated, so a retransmitted batch corrects to exactly
// the times its first delivery corrected to — the exactly-once dedup
// upstream never sees two versions of one report.
//
// What this deliberately does not fix: a constant offset WITHIN the
// window (harmless — debounce is count-based per device and dwell is
// computed from per-device deltas, so a bounded constant shift cancels
// out), gradual drift within the window, and a device falling behind
// (its reports cannot be pushed forward without reordering its own
// timeline; it ages out via the TTL like any silent device). The
// building clock itself anchors on the first reporter — if THAT device
// is skewed, the whole frame is shifted by a constant, which is
// consistent and invisible to every relative computation.
type skewTracker struct {
	window float64 // seconds

	mu       sync.Mutex
	offset   map[string]float64 // seconds subtracted from the device's raw times
	maxEff   float64            // newest corrected time seen (the building "now")
	anchored bool
	adjusted uint64 // lifetime count of reports whose time was corrected
}

func newSkewTracker(window time.Duration) *skewTracker {
	return &skewTracker{window: window.Seconds(), offset: map[string]float64{}}
}

// correct maps every report time of the batch onto the building clock,
// in place: the batch is the gateway's own pooled rendering of the
// upload, never the caller's memory, so a retrying uplink that resends
// its reports resends the raw times and corrects to the same ones.
func (s *skewTracker) correct(b *wire.Batch) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, device := range b.Devices {
		at := b.At[i]
		off, known := s.offset[device]
		if !known {
			off = 0
			if s.anchored && (at-s.maxEff > s.window || s.maxEff-at > s.window) {
				// First contact from a device far outside the window, ahead
				// or behind: snap this report to the building "now" and
				// remember the frame shift.
				off = at - s.maxEff
			}
			s.offset[device] = off
		}
		eff := at - off
		if s.anchored && eff-s.maxEff > s.window {
			// The device's clock stepped forward mid-stream: fold the jump
			// into its offset so this and all later reports stay anchored.
			// (A retransmit of THIS report lands in the !step branch with
			// the updated offset and corrects to the identical time.)
			s.offset[device] = off + (eff - s.maxEff)
			eff = s.maxEff
		}
		if eff != at {
			b.At[i] = eff
			s.adjusted++
		}
		if eff > s.maxEff {
			s.maxEff = eff
		}
		s.anchored = true
	}
}

// stats returns the lifetime corrected-report count.
func (s *skewTracker) stats() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adjusted
}

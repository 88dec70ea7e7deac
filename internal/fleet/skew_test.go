package fleet

import (
	"slices"
	"testing"
	"time"

	"occusim/internal/transport"
	"occusim/internal/wire"
)

func rep(dev string, at float64) transport.Report {
	return transport.Report{Device: dev, AtSeconds: at}
}

// corrected renders the reports into a batch, as every gateway door
// does, runs the tracker over it and returns the batch's time column.
func corrected(t *testing.T, s *skewTracker, reports ...transport.Report) []float64 {
	t.Helper()
	b := new(wire.Batch)
	if err := transport.EncodeReports(b, reports); err != nil {
		t.Fatal(err)
	}
	s.correct(b)
	return b.At
}

func TestSkewHonestDevicesUntouched(t *testing.T) {
	s := newSkewTracker(30 * time.Second)
	if got, want := corrected(t, s, rep("a", 10), rep("b", 12), rep("a", 14)), []float64{10, 12, 14}; !slices.Equal(got, want) {
		t.Fatalf("honest reports changed: %v, want %v", got, want)
	}
	if s.stats() != 0 {
		t.Fatalf("adjusted = %d, want 0", s.stats())
	}
}

// TestSkewFutureDeviceSnapped: a device 2h in the future is snapped to
// the building "now" on first contact and keeps its own deltas after.
func TestSkewFutureDeviceSnapped(t *testing.T) {
	s := newSkewTracker(30 * time.Second)
	corrected(t, s, rep("honest", 10))

	in := []transport.Report{rep("skewed", 7210), rep("skewed", 7212)}
	if got := corrected(t, s, in...); got[0] != 10 || got[1] != 12 {
		t.Fatalf("corrected times = %v, want 10, 12", got)
	}
	// The correction is made on the gateway's rendering of the upload; the
	// caller's slice keeps its raw times (retrying uplinks resend it).
	if in[0].AtSeconds != 7210 || in[1].AtSeconds != 7212 {
		t.Fatalf("caller slice mutated: %v, %v", in[0].AtSeconds, in[1].AtSeconds)
	}
	// A whole-batch retransmit corrects to the identical times.
	if again := corrected(t, s, in...); again[0] != 10 || again[1] != 12 {
		t.Fatalf("retransmit corrected to %v — not idempotent", again)
	}
	if s.stats() != 4 {
		t.Fatalf("adjusted = %d, want 4", s.stats())
	}
}

// TestSkewPastDeviceSnappedForward: a device far behind the building
// clock would be instantly swept as TTL residue; its frame is pulled
// forward on first contact.
func TestSkewPastDeviceSnappedForward(t *testing.T) {
	s := newSkewTracker(30 * time.Second)
	corrected(t, s, rep("honest", 7200))
	if got := corrected(t, s, rep("behind", 100), rep("behind", 104)); got[0] != 7200 || got[1] != 7204 {
		t.Fatalf("corrected times = %v, want 7200, 7204", got)
	}
}

// TestSkewStepReanchors: a known device whose clock jumps forward
// mid-stream is re-anchored, and the jump report replays idempotently.
func TestSkewStepReanchors(t *testing.T) {
	s := newSkewTracker(30 * time.Second)
	corrected(t, s, rep("d", 10), rep("other", 20))

	if got := corrected(t, s, rep("d", 3600)); got[0] != 20 {
		t.Fatalf("stepped report corrected to %v, want the building now (20)", got[0])
	}
	// Retransmit of the jump report: identical correction.
	if again := corrected(t, s, rep("d", 3600)); again[0] != 20 {
		t.Fatalf("retransmitted step corrected to %v, want 20", again[0])
	}
	// Later reports keep the device's own deltas in the new frame.
	if next := corrected(t, s, rep("d", 3605)); next[0] != 25 {
		t.Fatalf("post-step report corrected to %v, want 25", next[0])
	}
}

// TestSkewWithinWindowTolerated: constant skew inside the window is
// deliberately left alone — debounce is count-based and dwell is
// per-device deltas, so it cancels.
func TestSkewWithinWindowTolerated(t *testing.T) {
	s := newSkewTracker(30 * time.Second)
	corrected(t, s, rep("honest", 100))
	if got := corrected(t, s, rep("slightly", 115)); got[0] != 115 {
		t.Fatalf("within-window report corrected to %v, want untouched 115", got[0])
	}
}

// TestSkewColdStartAnchorsFirstReporter: with no traffic yet, the first
// reporter defines the frame — even if ITS clock is absurd, everything
// after is relative to it, consistently.
func TestSkewColdStartAnchorsFirstReporter(t *testing.T) {
	s := newSkewTracker(30 * time.Second)
	if got := corrected(t, s, rep("first", 99999)); got[0] != 99999 {
		t.Fatalf("cold-start report corrected to %v, want untouched", got[0])
	}
	// A later honest-looking device far from that frame is snapped TO it.
	if got := corrected(t, s, rep("second", 5)); got[0] != 99999 {
		t.Fatalf("second device corrected to %v, want the first reporter's frame", got[0])
	}
}

func TestNilSkewTrackerPassthrough(t *testing.T) {
	var s *skewTracker
	if got := corrected(t, s, rep("a", 1)); got[0] != 1 {
		t.Fatalf("nil tracker corrected a report to %v", got[0])
	}
	if s.stats() != 0 {
		t.Fatal("nil tracker stats should be 0")
	}
}

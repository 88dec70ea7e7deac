package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/overload"
	"occusim/internal/transport"
)

// scriptedSink answers its n-th exchange with script[n] (nil once the
// script runs out) and keeps a copy of what every exchange carried.
type scriptedSink struct {
	script []error

	mu   sync.Mutex
	seen [][]transport.Report
}

func (s *scriptedSink) Name() string                { return "scripted" }
func (s *scriptedSink) Send(transport.Report) error { panic("the driver sends whole batches") }

func (s *scriptedSink) SendBatch(reports []transport.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen = append(s.seen, append([]transport.Report(nil), reports...))
	if n := len(s.seen); n <= len(s.script) {
		return s.script[n-1]
	}
	return nil
}

func oneLane(t *testing.T, reports int) []Lane {
	t.Helper()
	streams, _, _ := experiments.SynthCrowdStreams(building.PaperHouse(), 1, reports, 7)
	return Lanes(streams, reports)
}

// TestRetransmitRule pins the one rule every driven crowd retransmits
// by: a shed is retried after its own hint, capped; anything else only
// within the run's declared fault budget.
func TestRetransmitRule(t *testing.T) {
	shed := func(hint time.Duration) error {
		return fmt.Errorf("gateway: %w", &overload.Error{RetryAfter: hint})
	}
	broken := errors.New("connection reset")
	for _, tc := range []struct {
		name    string
		budget  Budget
		attempt int
		err     error
		wait    time.Duration
		again   bool
	}{
		{"shed hint honoured", Budget{}, 1, shed(time.Millisecond), time.Millisecond, true},
		{"shed hint capped", Budget{}, 1, shed(time.Minute), maxShedWait, true},
		{"shed ignores the fault budget's gap", Budget{Attempts: 2, Gap: time.Second}, 7, shed(0), 0, true},
		{"wedged fleet", Budget{}, maxShedAttempts, shed(time.Millisecond), time.Millisecond, false},
		{"no budget fails fast", Budget{}, 1, broken, 0, false},
		{"budget spaces attempts", Budget{Attempts: 3, Gap: time.Second}, 2, broken, time.Second, true},
		{"budget exhausted", Budget{Attempts: 3, Gap: time.Second}, 3, broken, time.Second, false},
	} {
		wait, again := tc.budget.next(tc.attempt, tc.err)
		if wait != tc.wait || again != tc.again {
			t.Errorf("%s: next(%d) = (%v, %v), want (%v, %v)", tc.name, tc.attempt, wait, again, tc.wait, tc.again)
		}
	}
}

// TestDriveRetransmitsIdenticalBytes drives one batch through a sink
// that sheds it, then drops it, then takes it: every attempt must carry
// the same stamped reports, and the counts must tell acknowledged
// exchanges from failed ones (loadgen's mean batch divides by them).
func TestDriveRetransmitsIdenticalBytes(t *testing.T) {
	sink := &scriptedSink{script: []error{&overload.Error{RetryAfter: time.Microsecond}, errors.New("lost")}}
	ran, err := Driver{Faults: Budget{Attempts: 3}}.Drive(oneLane(t, 8), sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.seen) != 3 {
		t.Fatalf("sink saw %d exchanges, want 3", len(sink.seen))
	}
	for i, got := range sink.seen {
		if got[0].Seq != 1 || got[7].Seq != 8 || !reflect.DeepEqual(got, sink.seen[0]) {
			t.Fatalf("attempt %d carried different reports than attempt 1:\n%+v\n%+v", i+1, got, sink.seen[0])
		}
	}
	if ran.Exchanges != 3 || ran.AckedExchanges != 1 || ran.Acked != 8 || ran.Unique != 8 || ran.Sent != 8 {
		t.Fatalf("counts = %d exchanges, %d acknowledged carrying %d reports, %d unique, %d sent; want 3, 1, 8, 8, 8",
			ran.Exchanges, ran.AckedExchanges, ran.Acked, ran.Unique, ran.Sent)
	}
}

// TestDriveFaultBudget: without a budget the first error is the run's;
// with one, the last error once it is spent.
func TestDriveFaultBudget(t *testing.T) {
	first, last := errors.New("first"), errors.New("last")
	for _, tc := range []struct {
		budget    Budget
		want      error
		exchanges int
	}{
		{Budget{}, first, 1},
		{Budget{Attempts: 3}, last, 3},
	} {
		sink := &scriptedSink{script: []error{first, errors.New("middle"), last, errors.New("never sent")}}
		ran, err := Driver{Faults: tc.budget}.Drive(oneLane(t, 4), sink)
		if !errors.Is(err, tc.want) || ran.Exchanges != tc.exchanges || ran.Acked != 0 {
			t.Errorf("budget %+v: err %v after %d exchanges (%d reports acknowledged), want %v after %d (0)",
				tc.budget, err, ran.Exchanges, ran.Acked, tc.want, tc.exchanges)
		}
	}
}

// barrierSink holds every exchange until lanes of them are inside it.
type barrierSink struct {
	lanes   int
	mu      sync.Mutex
	inside  int
	release chan struct{}
}

func (s *barrierSink) Name() string                { return "barrier" }
func (s *barrierSink) Send(transport.Report) error { panic("the driver sends whole batches") }

func (s *barrierSink) SendBatch([]transport.Report) error {
	s.mu.Lock()
	s.inside++
	if s.inside == s.lanes {
		close(s.release)
	}
	s.mu.Unlock()
	select {
	case <-s.release:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("the crowd never all arrived: lanes are not overlapping")
	}
}

// TestDriveOverlapsEveryLane: device lanes are blocking I/O, so a crowd
// wider than GOMAXPROCS must still be in flight all at once. A worker
// pool sized to the CPUs (internal/par's, which drove the loopback HTTP
// crowd before the one driver) never fills the barrier.
func TestDriveOverlapsEveryLane(t *testing.T) {
	lanes := 4*runtime.GOMAXPROCS(0) + 3
	streams, _, _ := experiments.SynthCrowdStreams(building.PaperHouse(), lanes, 1, 7)
	sink := &barrierSink{lanes: lanes, release: make(chan struct{})}
	if _, err := (Driver{}).Drive(Lanes(streams, 1), sink); err != nil {
		t.Fatal(err)
	}
}

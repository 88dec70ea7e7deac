package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"occusim/internal/overload"
	"occusim/internal/transport"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct{ at time.Time }

func (c *fakeClock) now() time.Time          { return c.at }
func (c *fakeClock) advance(d time.Duration) { c.at = c.at.Add(d) }
func testBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(threshold, cooldown)
	clk := &fakeClock{at: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerStateMachine(t *testing.T) {
	b, clk := testBreaker(3, 10*time.Second)

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused delivery %d", i)
		}
		b.failure()
	}
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", st)
	}
	// A success resets the consecutive count.
	b.success()
	for i := 0; i < 2; i++ {
		b.failure()
	}
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatal("success should have reset the consecutive-failure count")
	}
	// The third consecutive failure trips it.
	b.failure()
	if st, trips := b.snapshot(); st != breakerOpen || trips != 1 {
		t.Fatalf("after threshold: state=%v trips=%d, want open/1", st, trips)
	}
	if b.allow() {
		t.Fatal("open breaker allowed a delivery inside the cooldown")
	}

	// Cooldown elapses: exactly one half-open probe.
	clk.advance(10 * time.Second)
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker allowed a second concurrent delivery")
	}
	// Probe fails: re-open for another full cooldown.
	b.failure()
	if st, trips := b.snapshot(); st != breakerOpen || trips != 2 {
		t.Fatalf("after failed probe: state=%v trips=%d, want open/2", st, trips)
	}
	clk.advance(9 * time.Second)
	if b.allow() {
		t.Fatal("re-opened breaker allowed a delivery before the fresh cooldown expired")
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("second half-open probe refused")
	}
	// Probe succeeds: closed, counters reset.
	b.success()
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("after successful probe: state=%v, want closed", st)
	}
	if !b.allow() {
		t.Fatal("re-closed breaker refused delivery")
	}
}

// breakerCounts reports whether the gateway's breaker counts err against
// the shard: one failure opens a threshold-1 circuit.
func breakerCounts(err error) bool {
	b, _ := testBreaker(1, time.Hour)
	(&Gateway{breakers: []*breaker{b}}).breakerObserve(0, err)
	state, _ := b.snapshot()
	return state == breakerOpen
}

// TestBreakerFailureClassification: only infrastructure trouble counts
// — a shard that sheds 429 or rejects a bad report is alive.
func TestBreakerFailureClassification(t *testing.T) {
	if breakerCounts(nil) {
		t.Fatal("nil error counted as failure")
	}
	if breakerCounts(&overload.Error{RetryAfter: time.Second}) {
		t.Fatal("overload shed counted as failure")
	}
	if breakerCounts(fmt.Errorf("fleet: shard x: %w", &overload.Error{RetryAfter: time.Second})) {
		t.Fatal("wrapped overload shed counted as failure")
	}
	if !breakerCounts(&url.Error{Op: "Post", URL: "http://shard-0.test", Err: syscall.ECONNREFUSED}) {
		t.Fatal("refused connection not counted as failure")
	}
	if breakerCounts(fmt.Errorf("wrap: %w", ErrShardTripped)) {
		t.Fatal("a tripped-circuit error must not feed back into the breaker")
	}

	// Status-coded errors via a real exchange: 5xx is a failure,
	// 429/4xx is not.
	for _, tc := range []struct {
		code    int
		failure bool
	}{
		{http.StatusInternalServerError, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusTooManyRequests, false},
		{http.StatusBadRequest, false},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "x", tc.code)
		}))
		_, err := transport.DoJSON(nil, http.MethodPost, ts.URL, []byte(`{}`), transport.RetryPolicy{})
		ts.Close()
		if err == nil {
			t.Fatalf("status %d should error", tc.code)
		}
		if got := breakerCounts(err); got != tc.failure {
			t.Fatalf("breakerCounts(status %d) = %v, want %v", tc.code, got, tc.failure)
		}
	}
}

// TestBreakerHalfOpenSingleProbe pins the half-open admission contract
// under concurrency: when the cooldown expires, EXACTLY ONE caller may
// pass as the probe no matter how many race through allow() at once —
// a half-open circuit that admits a thundering herd would re-stampede
// the very shard it was protecting. It also pins the re-arm rules: a
// failed probe re-opens the circuit (nobody else slips in until the
// next cooldown), a successful probe closes it for everyone, and the
// stale-leader fence is never an infrastructure failure.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := testBreaker(1, 10*time.Second)
	b.failure() // trip it
	clk.advance(10 * time.Second)

	const racers = 64
	var admitted atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.allow() {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", got)
	}

	// The probe fails: the circuit re-opens and holds everyone out for a
	// fresh cooldown — including half-open stragglers.
	b.failure()
	if b.allow() {
		t.Fatal("allow() during the re-opened cooldown")
	}
	clk.advance(9 * time.Second)
	if b.allow() {
		t.Fatal("cooldown restarted by the failed probe was not honoured")
	}
	clk.advance(time.Second)

	// Next cooldown: again one probe — this time it succeeds and the
	// circuit closes for all callers.
	admitted.Store(0)
	start = make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.allow() {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("second half-open window admitted %d probes, want exactly 1", got)
	}
	b.success()
	if !b.allow() || !b.allow() {
		t.Fatal("closed circuit after a successful probe must admit everyone")
	}
	if state, trips := b.snapshot(); state != breakerClosed || trips != 2 {
		t.Fatalf("final state=%v trips=%d, want closed/2", state, trips)
	}
}

// TestBreakerIgnoresStaleLeaderFence pins that a 409 leadership fence
// never counts against shard health: a deposed gateway's every write is
// fenced, and tripping breakers on that would amputate healthy shards
// from a gateway that may yet be re-elected.
func TestBreakerIgnoresStaleLeaderFence(t *testing.T) {
	if breakerCounts(&transport.StaleLeaderError{Granted: 4, Leader: "http://gwB"}) {
		t.Fatal("a stale-leader fence counted as an infrastructure failure")
	}
	if breakerCounts(fmt.Errorf("shard says: %w", &transport.StaleLeaderError{Granted: 4})) {
		t.Fatal("a wrapped stale-leader fence counted as an infrastructure failure")
	}
}

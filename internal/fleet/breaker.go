package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"occusim/internal/obs"
	"occusim/internal/transport"
)

// ErrShardTripped marks an ingest refused because the owning shard's
// circuit breaker is open: recent consecutive deliveries to it failed
// and the gateway is failing fast instead of stacking timeouts. Distinct
// from MarkDown — the breaker never changes routing (the shard keeps its
// keys and is probed again after a cooldown); MarkDown reassigns them.
// It is 503 at the HTTP face, so upstream retry policies treat it as
// transient.
var ErrShardTripped error = &transport.Error{Code: http.StatusServiceUnavailable, Err: errors.New("fleet: shard circuit open")}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-shard circuit breaker on the ingest dispatch path.
// Closed: deliveries flow, consecutive failures are counted. Open (the
// count hit the threshold): deliveries fail fast with ErrShardTripped
// until the cooldown elapses. Half-open: exactly one delivery is let
// through as a probe — success closes the circuit, failure re-opens it
// for another cooldown. Health probes and migration traffic never pass
// through the breaker; it guards only report dispatch.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injected by tests

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
	trips    uint64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a delivery may proceed right now. In half-open
// it admits a single probe; the caller must report the outcome via
// observe.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a delivery the shard answered (including answers that
// are not infrastructure failures — a 4xx rejection or a 429 shed both
// prove the shard is alive) and closes the circuit. closed reports a
// genuine transition (the circuit was open or half-open), so callers
// can record the recovery without logging every healthy delivery.
func (b *breaker) success() (closed bool) {
	b.mu.Lock()
	closed = b.state != breakerClosed
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
	return closed
}

// failure records an infrastructure failure: it re-opens a half-open
// circuit immediately, and trips a closed one once the consecutive
// count reaches the threshold. tripped reports that THIS failure opened
// the circuit.
func (b *breaker) failure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		b.trips++
		return true
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.trips++
			return true
		}
	default: // already open (a straggler delivery admitted before the trip)
	}
	return false
}

// snapshot returns (state, trips) for status reporting.
func (b *breaker) snapshot() (breakerState, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips
}

// breakerAllow fails fast with ErrShardTripped when the shard's circuit
// refuses the delivery; a gateway without breakers always allows.
func (g *Gateway) breakerAllow(idx int) error {
	if g.breakers == nil {
		return nil
	}
	if !g.breakers[idx].allow() {
		return fmt.Errorf("%w: shard %s", ErrShardTripped, g.shards[idx].Name())
	}
	return nil
}

// breakerObserve feeds a delivery outcome back into the shard's
// circuit, recording genuine state transitions (trip, re-close) in the
// flight recorder — steady-state deliveries record nothing. Only the
// serving side's trouble counts: a failure classified unavailable (a 5xx,
// a log that refused the append, a reply out of protocol) or unreachable,
// except the circuit's own ErrShardTripped. A shed, a stale fence or a
// rejection proves the shard is up and answering — an overloaded shard
// must shed through its own gate, not get amputated by the breaker on top
// of it.
func (g *Gateway) breakerObserve(idx int, err error) {
	if g.breakers == nil {
		return
	}
	gm := g.met
	v := transport.Classify(err)
	if (v.Class == transport.Unavailable || v.Class == transport.Unreachable) && !errors.Is(err, ErrShardTripped) {
		if g.breakers[idx].failure() && gm != nil {
			gm.rec.Record(obs.EventBreakerTrip, map[string]any{
				"shard": g.shards[idx].Name(), "cause": err.Error(),
			})
		}
	} else {
		if g.breakers[idx].success() && gm != nil {
			gm.rec.Record(obs.EventBreakerClose, map[string]any{
				"shard": g.shards[idx].Name(),
			})
		}
	}
}

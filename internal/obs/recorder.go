// The flight recorder: a bounded ring buffer of discrete control-plane
// events. Metrics answer "how much, how fast"; the recorder answers
// "what happened, in what order" — which lease claim deposed which
// epoch, which shard went down before which migration — the last N
// events of the story, always resident, never allocating past the ring.
package obs

import (
	"sync"
	"time"
)

// Event is one recorded occurrence: a nanosecond wall timestamp, a
// kind tag, and structured fields. Seq is the event's position in the
// recorder's lifetime stream — gaps in a snapshot mean the ring wrapped
// over the missing span.
type Event struct {
	Seq     uint64         `json:"seq"`
	AtNanos int64          `json:"atNanos"`
	Kind    string         `json:"kind"`
	Fields  map[string]any `json:"fields,omitempty"`
}

// Standard event kinds. Recorders accept any string; these name the
// fleet's control-plane vocabulary in one place so dashboards and
// tests never drift on spelling.
const (
	EventLeaseClaim   = "lease_claim"       // a shard granted a NEW leadership epoch
	EventLeaseReject  = "lease_reject"      // a claim lost to a higher/foreign grant
	EventFencedWrite  = "fenced_write"      // a stale-epoch write was rejected
	EventLeaseAdvance = "lease_advance"     // a fenced write carried a newer epoch; grant advanced
	EventMigration    = "migration"         // device state moved between shards
	EventWALRepair    = "wal_repair"        // a torn WAL tail was truncated at recovery
	EventCompactError = "wal_compact_error" // a WAL compaction failed; the log was kept
	EventCompact      = "compact"           // a WAL compaction landed its snapshot
	EventShardDown    = "shard_down"        // dispatch marked a shard down
	EventShardUp      = "shard_up"          // a health probe brought a shard back
	EventStreamReset  = "stream_reset"      // a gateway → shard stream was closed on an error or deadline
	EventPresplitOff  = "presplit_off"      // the gateway will re-split every pre-split upload (skew correction is on)
)

// Recorder is the bounded ring. A nil *Recorder drops every Record —
// the same nil-safety contract as the metric handles. Writers contend
// on one mutex; control-plane events are rare (claims, moves, repairs),
// so the lock is never on a data path.
type Recorder struct {
	mu    sync.Mutex
	ring  []Event
	total uint64 // events ever recorded; next seq
}

// NewRecorder builds a ring holding the most recent capacity events
// (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when the ring is
// full. fields is retained as-is; callers must not mutate it after.
func (r *Recorder) Record(kind string, fields map[string]any) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.ring[r.total%uint64(len(r.ring))] = Event{
		Seq: r.total, AtNanos: now, Kind: kind, Fields: fields,
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained events oldest-first. The copy is taken
// under the writer lock, so a snapshot is always a consistent prefix-
// free window: complete events, in order, never a half-written slot.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	start := uint64(0)
	if r.total > n {
		start = r.total - n
	}
	out := make([]Event, 0, r.total-start)
	for seq := start; seq < r.total; seq++ {
		out = append(out, r.ring[seq%n])
	}
	return out
}

// Total returns how many events were ever recorded (including those the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

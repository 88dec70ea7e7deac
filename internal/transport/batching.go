package transport

import (
	"fmt"
	"sync"
)

// BatchingUplink coalesces per-cycle reports into batches before handing
// them to the underlying uplink, so a crowd of devices reporting every
// scan cycle costs the server one ingest pass per flush interval instead
// of one lock acquisition and decode per report.
//
// The flush clock is the reports' own AtSeconds timestamps: a batch is
// flushed when it reaches MaxBatch reports or when the newest report is
// FlushSeconds past the oldest pending one. Driving the interval off
// report time (not the wall clock) makes the behaviour identical under
// simulated and real time; real-time clients that can stall between
// reports can additionally call Flush from a timer.
//
// The pending queue is bounded by MaxPending: when a slow or failing
// server lets the queue back up, the oldest reports are dropped first
// (the newest observation is the valuable one for occupancy tracking).
// Reports are always delivered in Send order. BatchingUplink is safe for
// concurrent use.
type BatchingUplink struct {
	next Uplink

	// FlushSeconds is the coalescing interval in report time (default 10).
	// MaxBatch flushes earlier when that many reports are pending
	// (default 64). MaxPending bounds the queue across failed flushes
	// (default 4 × MaxBatch).
	flushSeconds float64
	maxBatch     int
	maxPending   int
	seq          *Sequencer

	mu      sync.Mutex
	pending []Report
	sent    int
	dropped int
	flushes int
}

// BatchConfig parameterises NewBatchingUplink; zero fields take the
// documented defaults.
type BatchConfig struct {
	// FlushSeconds is the coalescing interval measured on the reports'
	// AtSeconds clock (default 10 s).
	FlushSeconds float64
	// MaxBatch flushes as soon as this many reports are pending
	// (default 64).
	MaxBatch int
	// MaxPending bounds the queue; the oldest reports are dropped beyond
	// it (default 4 × MaxBatch).
	MaxPending int
	// Sequencer, when set, stamps every queued report with its device's
	// next sequence number as it is accepted — before batching, so a
	// failed flush retransmits identical (Epoch, Seq) identities and the
	// server can dedupe the overlap. Nil sends reports as given.
	Sequencer *Sequencer
}

// NewBatchingUplink wraps next with report coalescing. When next also
// implements BatchSender the whole batch goes out in one exchange;
// otherwise reports are replayed through Send in order.
func NewBatchingUplink(next Uplink, cfg BatchConfig) (*BatchingUplink, error) {
	if next == nil {
		return nil, fmt.Errorf("transport: batching uplink needs an onward uplink")
	}
	if cfg.FlushSeconds < 0 || cfg.MaxBatch < 0 || cfg.MaxPending < 0 {
		return nil, fmt.Errorf("transport: batching bounds must be non-negative")
	}
	if cfg.FlushSeconds == 0 {
		cfg.FlushSeconds = 10
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = 4 * cfg.MaxBatch
	}
	if cfg.MaxPending < cfg.MaxBatch {
		cfg.MaxPending = cfg.MaxBatch
	}
	return &BatchingUplink{
		next:         next,
		flushSeconds: cfg.FlushSeconds,
		maxBatch:     cfg.MaxBatch,
		maxPending:   cfg.MaxPending,
		seq:          cfg.Sequencer,
	}, nil
}

// Name implements Uplink.
func (b *BatchingUplink) Name() string { return "batched(" + b.next.Name() + ")" }

// Send implements Uplink: the report is queued and the queue is flushed
// when the batch bound or the flush interval is reached. A nil return
// means the report was accepted for delivery, not yet delivered.
// Nothing is dropped before the flush gets its chance: the MaxPending
// clamp applies only to what a failed flush leaves behind, so a queue
// that backed up during an outage drains loss-free the moment the
// server recovers.
func (b *BatchingUplink) Send(r Report) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seq != nil {
		b.seq.Stamp(&r)
	}
	b.pending = append(b.pending, r)
	if len(b.pending) >= b.maxBatch ||
		r.AtSeconds-b.pending[0].AtSeconds >= b.flushSeconds {
		return b.flushLocked()
	}
	return nil
}

// Flush delivers everything pending regardless of the coalescing bounds
// (end of a run, a real-time timer, graceful shutdown).
func (b *BatchingUplink) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked()
}

// flushLocked delivers the pending batch; callers hold b.mu. On failure
// the reports stay queued for the next flush, subject to the MaxPending
// bound.
func (b *BatchingUplink) flushLocked() error {
	if len(b.pending) == 0 {
		return nil
	}
	batch := b.pending
	var err error
	if bs, ok := b.next.(BatchSender); ok {
		err = bs.SendBatch(batch)
		if err == nil {
			b.sent += len(batch)
		}
	} else {
		delivered := 0
		for _, r := range batch {
			if err = b.next.Send(r); err != nil {
				break
			}
			delivered++
		}
		b.sent += delivered
		batch = batch[delivered:]
	}
	if err != nil {
		// Keep the undelivered tail, clamped to the bound (oldest out).
		if over := len(batch) - b.maxPending; over > 0 {
			batch = batch[over:]
			b.dropped += over
		}
		b.pending = append(b.pending[:0], batch...)
		return fmt.Errorf("transport: batch flush: %w", err)
	}
	b.pending = b.pending[:0]
	b.flushes++
	return nil
}

// Pending returns the queued report count.
func (b *BatchingUplink) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// Stats returns lifetime (sent, dropped, flushes) counts.
func (b *BatchingUplink) Stats() (sent, dropped, flushes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sent, b.dropped, b.flushes
}

package transport

import (
	"fmt"
	"testing"
)

// recordingUplink captures per-report sends and batch sends separately.
type recordingUplink struct {
	sent    []Report
	batches [][]Report
	failN   int // fail the next N delivery attempts
}

// batchPending reads the batcher's queued report count under its lock.
func batchPending(b *BatchingUplink) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

func (r *recordingUplink) Name() string { return "recording" }

func (r *recordingUplink) Send(rep Report) error {
	if r.failN > 0 {
		r.failN--
		return fmt.Errorf("transport test: induced failure")
	}
	r.sent = append(r.sent, rep)
	return nil
}

func (r *recordingUplink) SendBatch(reps []Report) error {
	if r.failN > 0 {
		r.failN--
		return fmt.Errorf("transport test: induced failure")
	}
	r.batches = append(r.batches, append([]Report(nil), reps...))
	r.sent = append(r.sent, reps...)
	return nil
}

// sendOnly hides SendBatch (no embedding, so nothing is promoted),
// forcing the per-report fallback.
type sendOnly struct{ rec *recordingUplink }

func (s sendOnly) Name() string        { return "send-only" }
func (s sendOnly) Send(r Report) error { return s.rec.Send(r) }

func rep(device string, at float64) Report {
	return Report{Device: device, AtSeconds: at}
}

func TestBatchingValidation(t *testing.T) {
	if _, err := NewBatchingUplink(nil, BatchConfig{}); err == nil {
		t.Error("nil uplink should fail")
	}
	if _, err := NewBatchingUplink(&recordingUplink{}, BatchConfig{FlushSeconds: -1}); err == nil {
		t.Error("negative flush interval should fail")
	}
}

// TestBatchingFlushesOnInterval pins the coalescing clock: reports queue
// until one lands FlushSeconds past the oldest pending, then the whole
// batch goes out in one SendBatch, in order.
func TestBatchingFlushesOnInterval(t *testing.T) {
	rec := &recordingUplink{}
	b, err := NewBatchingUplink(rec, BatchConfig{FlushSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range []float64{0, 4, 8} {
		if err := b.Send(rep("d", at)); err != nil {
			t.Fatal(err)
		}
		if got := batchPending(b); got != i+1 {
			t.Fatalf("pending after %v = %d", at, got)
		}
	}
	if len(rec.batches) != 0 {
		t.Fatalf("flushed early: %v", rec.batches)
	}
	if err := b.Send(rep("d", 10)); err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) != 1 || len(rec.batches[0]) != 4 {
		t.Fatalf("batches = %v, want one of 4", rec.batches)
	}
	for i, r := range rec.sent {
		if want := []float64{0, 4, 8, 10}[i]; r.AtSeconds != want {
			t.Fatalf("delivery order broken: %v", rec.sent)
		}
	}
	if batchPending(b) != 0 {
		t.Fatalf("pending after flush = %d", batchPending(b))
	}
}

// TestBatchingFlushesOnMaxBatch pins the size bound.
func TestBatchingFlushesOnMaxBatch(t *testing.T) {
	rec := &recordingUplink{}
	b, err := NewBatchingUplink(rec, BatchConfig{FlushSeconds: 1e9, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := b.Send(rep("d", float64(i)*1e-3)); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.batches) != 2 {
		t.Fatalf("batches = %d, want 2 full flushes", len(rec.batches))
	}
	if batchPending(b) != 1 {
		t.Fatalf("pending = %d, want the tail report", batchPending(b))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) != 7 {
		t.Fatalf("sent = %d, want all 7", len(rec.sent))
	}
}

// TestBatchingFallsBackToSend pins the per-report fallback for uplinks
// without batch support, preserving order.
func TestBatchingFallsBackToSend(t *testing.T) {
	rec := &recordingUplink{}
	b, err := NewBatchingUplink(sendOnly{rec: rec}, BatchConfig{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = b.Send(rep(fmt.Sprintf("d%d", i), 0))
	}
	if len(rec.batches) != 0 {
		t.Fatal("fallback used SendBatch")
	}
	if len(rec.sent) != 4 {
		t.Fatalf("sent = %d", len(rec.sent))
	}
	for i, r := range rec.sent {
		if r.Device != fmt.Sprintf("d%d", i) {
			t.Fatalf("order broken: %v", rec.sent)
		}
	}
}

// TestBatchingRetainsOnFailureAndRedelivers pins failure handling: a
// failed flush keeps the batch queued (bounded) and the next flush
// delivers it in the original order.
func TestBatchingRetainsOnFailureAndRedelivers(t *testing.T) {
	rec := &recordingUplink{failN: 1}
	b, err := NewBatchingUplink(rec, BatchConfig{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Send(rep("a", 0))
	if err := b.Send(rep("b", 0)); err == nil {
		t.Fatal("flush against failing uplink should report the error")
	}
	if batchPending(b) != 2 {
		t.Fatalf("pending after failed flush = %d, want 2", batchPending(b))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) != 2 || rec.sent[0].Device != "a" || rec.sent[1].Device != "b" {
		t.Fatalf("redelivery broken: %v", rec.sent)
	}
	if batchPending(b) != 0 {
		t.Fatalf("pending after redelivery = %d", batchPending(b))
	}
}

// TestBatchingBoundsPendingQueue pins the overflow policy: a backed-up
// queue drops the oldest reports first and never exceeds 4 × MaxBatch.
func TestBatchingBoundsPendingQueue(t *testing.T) {
	rec := &recordingUplink{failN: 1 << 30} // never deliver
	b, err := NewBatchingUplink(rec, BatchConfig{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_ = b.Send(rep(fmt.Sprintf("d%d", i), 0))
		if p := batchPending(b); p > 8 {
			t.Fatalf("pending %d exceeds bound", p)
		}
	}
	rec.failN = 0
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) != 8 {
		t.Fatalf("flush delivered %d of 20, want the bound's 8 survivors", len(rec.sent))
	}
	// The survivors are the newest reports, still in order.
	for i := 1; i < len(rec.sent); i++ {
		if rec.sent[i-1].Device >= rec.sent[i].Device && len(rec.sent[i-1].Device) == len(rec.sent[i].Device) {
			t.Fatalf("survivor order broken: %v", rec.sent)
		}
	}
}

// TestQueueOverflowThenDrain pins the retry queue's behaviour across an
// outage: enqueues beyond capacity evict the oldest, and once the uplink
// recovers a sequence of flushes drains everything that survived, in
// order and within the attempt budget.
func TestQueueOverflowThenDrain(t *testing.T) {
	rec := &recordingUplink{failN: 1 << 30}
	q, err := NewQueue(sendOnly{rec: rec}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	evictions := 0
	for i := 0; i < 12; i++ {
		if q.Enqueue(rep(fmt.Sprintf("r%02d", i), float64(i))) {
			evictions++
		}
	}
	if evictions != 7 {
		t.Fatalf("evictions = %d, want 7", evictions)
	}
	if len(q.pending) != 5 {
		t.Fatalf("pending = %d, want capacity", len(q.pending))
	}

	// One failing flush burns one attempt per queued report.
	if n := q.Flush(); n != 0 {
		t.Fatalf("failing flush delivered %d", n)
	}
	if len(q.pending) != 5 {
		t.Fatalf("pending after failing flush = %d", len(q.pending))
	}

	// Recovery: everything drains in order.
	rec.failN = 0
	if n := q.Flush(); n != 5 {
		t.Fatalf("drain delivered %d, want 5", n)
	}
	if len(q.pending) != 0 {
		t.Fatalf("pending after drain = %d", len(q.pending))
	}
	for i, r := range rec.sent {
		if want := fmt.Sprintf("r%02d", 7+i); r.Device != want {
			t.Fatalf("drain order: got %q at %d, want %q", r.Device, i, want)
		}
	}
}

// TestQueueDropsAfterBudgetDuringDrain pins the attempt budget under a
// long outage: reports that exhaust maxAttempts are dropped, not
// retried forever.
func TestQueueDropsAfterBudgetDuringDrain(t *testing.T) {
	rec := &recordingUplink{failN: 1 << 30}
	q, err := NewQueue(sendOnly{rec: rec}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue(rep("a", 0))
	q.Enqueue(rep("b", 1))
	q.Flush() // attempt 1 fails
	q.Flush() // attempt 2 fails → budget exhausted, dropped
	if len(q.pending) != 0 {
		t.Fatalf("pending = %d after budget exhaustion", len(q.pending))
	}
	rec.failN = 0
	if n := q.Flush(); n != 0 {
		t.Fatalf("empty queue delivered %d", n)
	}
	if len(rec.sent) != 0 {
		t.Fatalf("dropped reports were delivered: %v", rec.sent)
	}
}

package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestRecorderWraparound: past capacity the ring keeps the newest
// events, snapshot stays oldest-first, and Seq exposes what wrapped.
func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record("e", map[string]any{"i": i})
	}
	events := r.Snapshot()
	if len(events) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(events))
	}
	for k, e := range events {
		wantSeq := uint64(6 + k)
		if e.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d (oldest-first ordering)", k, e.Seq, wantSeq)
		}
		if got := e.Fields["i"].(int); got != 6+k {
			t.Fatalf("event %d carries i=%d, want %d", k, got, 6+k)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
}

// TestRecorderUnderCapacity: fewer events than the ring holds must
// all be retained, in order, from seq 0.
func TestRecorderUnderCapacity(t *testing.T) {
	r := NewRecorder(64)
	r.Record(EventLeaseClaim, map[string]any{"epoch": 1})
	r.Record(EventFencedWrite, nil)
	events := r.Snapshot()
	if len(events) != 2 || events[0].Kind != EventLeaseClaim || events[1].Kind != EventFencedWrite {
		t.Fatalf("snapshot = %+v", events)
	}
	if events[0].Seq != 0 || events[1].Seq != 1 {
		t.Fatal("seqs must start at 0")
	}
	if events[0].AtNanos == 0 {
		t.Fatal("events must carry wall timestamps")
	}
}

// TestRecorderConcurrentWriters: many goroutines recording at once
// must produce a dense seq space (no drops, no duplicates) and a
// wrap-consistent snapshot.
func TestRecorderConcurrentWriters(t *testing.T) {
	const writers = 8
	const perWriter = 500
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record("k", map[string]any{"w": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != writers*perWriter {
		t.Fatalf("total = %d, want %d", r.Total(), writers*perWriter)
	}
	events := r.Snapshot()
	if len(events) != 256 {
		t.Fatalf("snapshot holds %d, want full ring of 256", len(events))
	}
	for k := 1; k < len(events); k++ {
		if events[k].Seq != events[k-1].Seq+1 {
			t.Fatalf("snapshot seqs not dense at %d: %d then %d", k, events[k-1].Seq, events[k].Seq)
		}
	}
	if last := events[len(events)-1].Seq; last != writers*perWriter-1 {
		t.Fatalf("newest seq = %d, want %d", last, writers*perWriter-1)
	}
}

// TestRecorderSnapshotWhileWriting: snapshots taken during a write
// storm must always be internally consistent — dense seqs, fully
// populated events — never a half-written slot.
func TestRecorderSnapshotWhileWriting(t *testing.T) {
	r := NewRecorder(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { // a Fatal must not leave the writer storming
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				r.Record("storm", map[string]any{"payload": fmt.Sprintf("event-%d", i)})
				i++
			}
		}
	}()
	for snap := 0; snap < 200; snap++ {
		events := r.Snapshot()
		for k, e := range events {
			if e.Kind != "storm" {
				t.Fatalf("snapshot %d event %d torn: kind %q", snap, k, e.Kind)
			}
			if e.Fields["payload"] != fmt.Sprintf("event-%d", e.Seq) {
				t.Fatalf("snapshot %d event %d fields do not match its seq %d: %v", snap, k, e.Seq, e.Fields)
			}
			if k > 0 && e.Seq != events[k-1].Seq+1 {
				t.Fatalf("snapshot %d seqs not dense", snap)
			}
		}
	}
}

func TestRecorderMinimumCapacity(t *testing.T) {
	r := NewRecorder(0)
	r.Record("a", nil)
	r.Record("b", nil)
	events := r.Snapshot()
	if len(events) != 1 || events[0].Kind != "b" {
		t.Fatalf("capacity-clamped ring = %+v, want just the newest", events)
	}
}

package store

import (
	"math"
	"testing"
	"time"
)

// seqObs builds a sequenced observation.
func seqObs(device string, at time.Duration, epoch, seq uint64) Observation {
	o := mkObs(device, at, idA)
	o.Epoch, o.Seq = epoch, seq
	return o
}

// TestSeqHighWaterMark pins the core dedup contract: per device, only
// strictly increasing sequence numbers are fresh; duplicates and stale
// retransmissions are acknowledged no-ops. Gaps are fine — a client
// that dropped reports under backpressure must not jam its stream.
func TestSeqHighWaterMark(t *testing.T) {
	s, _ := New(10)
	cases := []struct {
		seq   uint64
		fresh bool
	}{
		{1, true},  // first report
		{1, false}, // duplicate delivery
		{2, true},
		{2, false}, // retransmission
		{1, false}, // very stale retransmission
		{5, true},  // gap: reports 3, 4 were dropped client-side
		{4, false}, // late arrival below the mark
	}
	for i, c := range cases {
		fresh, err := addOne(s, seqObs("p", time.Duration(i)*time.Second, 0, c.seq))
		if err != nil {
			t.Fatal(err)
		}
		if fresh != c.fresh {
			t.Fatalf("step %d (seq %d): fresh = %v, want %v", i, c.seq, fresh, c.fresh)
		}
	}
	// Only the fresh observations were retained.
	if got := len(history(s, "p")); got != 3 {
		t.Fatalf("history holds %d observations, want 3", got)
	}
	if _, seq := s.SeqMark("p"); seq != 5 {
		t.Fatalf("high-water mark = %d, want 5", seq)
	}
}

// TestSeqZeroUnsequenced pins the legacy escape hatch: seq 0 reports
// (clients that predate sequencing) are always ingested, before and
// after sequenced traffic, and do not disturb the high-water mark.
func TestSeqZeroUnsequenced(t *testing.T) {
	s, _ := New(10)
	for i := 0; i < 3; i++ {
		fresh, err := addOne(s, seqObs("p", time.Duration(i)*time.Second, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("unsequenced observation %d was deduplicated", i)
		}
	}
	if fresh, _ := addOne(s, seqObs("p", 3*time.Second, 0, 1)); !fresh {
		t.Fatal("first sequenced report (seq 1) after unsequenced traffic must be fresh")
	}
	if fresh, _ := addOne(s, seqObs("p", 4*time.Second, 0, 0)); !fresh {
		t.Fatal("unsequenced report after sequenced traffic must still be fresh")
	}
	if _, seq := s.SeqMark("p"); seq != 1 {
		t.Fatalf("unsequenced traffic moved the high-water mark to %d", seq)
	}
}

// TestSeqWraparoundRejected pins that the mark does not wrap: a
// counter that overflows back to small values is stale, not a restart
// — restarts must be declared through the epoch field.
func TestSeqWraparoundRejected(t *testing.T) {
	s, _ := New(10)
	if fresh, _ := addOne(s, seqObs("p", time.Second, 7, math.MaxUint64)); !fresh {
		t.Fatal("mark setup failed")
	}
	if fresh, _ := addOne(s, seqObs("p", 2*time.Second, 7, 1)); fresh {
		t.Fatal("wrapped sequence number must be rejected within one epoch")
	}
	if fresh, _ := addOne(s, seqObs("p", 2*time.Second, 8, 1)); !fresh {
		t.Fatal("a declared epoch bump must reopen the stream")
	}
}

// TestSeqEpochReset pins device-reset handling: a higher epoch always
// wins regardless of seq, and anything from a lower epoch is stale
// afterwards.
func TestSeqEpochReset(t *testing.T) {
	s, _ := New(10)
	if fresh, _ := addOne(s, seqObs("p", time.Second, 1, 5)); !fresh {
		t.Fatal("epoch 1 seq 5 should land")
	}
	// The device reboots, loses its counter, restarts at seq 1 under
	// epoch 2.
	if fresh, _ := addOne(s, seqObs("p", 2*time.Second, 2, 1)); !fresh {
		t.Fatal("seq restart under a new epoch must be accepted")
	}
	// Pre-reboot stragglers are stale now.
	if fresh, _ := addOne(s, seqObs("p", 3*time.Second, 1, 6)); fresh {
		t.Fatal("a report from a superseded epoch must be rejected")
	}
	epoch, seq := s.SeqMark("p")
	if epoch != 2 || seq != 1 {
		t.Fatalf("mark = (%d, %d), want (2, 1)", epoch, seq)
	}
}

// TestSeqBatchOutOfOrder pins that the mark advances as the batch
// lands: an out-of-order seq inside one batch is dropped exactly as it
// would be arriving in a later batch.
func TestSeqBatchOutOfOrder(t *testing.T) {
	s, _ := New(10)
	batch := []Observation{
		seqObs("p", 1*time.Second, 0, 1),
		seqObs("p", 3*time.Second, 0, 3),
		seqObs("p", 2*time.Second, 0, 2), // late within the batch
		seqObs("q", 1*time.Second, 0, 1), // other devices unaffected
	}
	fresh, err := s.AddObservationBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true}
	for i := range want {
		if fresh[i] != want[i] {
			t.Fatalf("fresh[%d] = %v, want %v (mask %v)", i, fresh[i], want[i], fresh)
		}
	}
}

// TestSeqBatchRetransmitIdempotent pins the whole-batch retry story: a
// batch delivered twice changes nothing on the second pass.
func TestSeqBatchRetransmitIdempotent(t *testing.T) {
	s, _ := New(10)
	batch := []Observation{
		seqObs("p", 1*time.Second, 0, 1),
		seqObs("p", 2*time.Second, 0, 2),
		seqObs("q", 1*time.Second, 0, 1),
	}
	if _, err := s.AddObservationBatch(batch); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.AddObservationBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fresh {
		if f {
			t.Fatalf("retransmitted batch entry %d was ingested twice", i)
		}
	}
	if got := len(history(s, "p")); got != 2 {
		t.Fatalf("p history = %d, want 2", got)
	}
}

// TestSeqMarkMigration pins the mark's travel across shard stores:
// SeqMark reads it out, EvictDevice drops it, InstallSeqMark seeds it
// forward-only, and the receiving store keeps deduplicating the device's
// in-flight retransmissions.
func TestSeqMarkMigration(t *testing.T) {
	old, _ := New(10)
	if _, err := addOne(old, seqObs("p", time.Second, 3, 9)); err != nil {
		t.Fatal(err)
	}
	epoch, seq := old.SeqMark("p")
	if epoch != 3 || seq != 9 {
		t.Fatalf("exported mark = (%d, %d), want (3, 9)", epoch, seq)
	}
	old.EvictDevice("p")
	if e, q := old.SeqMark("p"); e != 0 || q != 0 {
		t.Fatalf("mark survives eviction: (%d, %d)", e, q)
	}
	if len(history(old, "p")) != 0 {
		t.Fatal("observations survive eviction")
	}

	next, _ := New(10)
	next.InstallSeqMark("p", epoch, seq)
	if fresh, _ := addOne(next, seqObs("p", time.Second, 3, 9)); fresh {
		t.Fatal("retransmission below the migrated mark must be rejected")
	}
	if fresh, _ := addOne(next, seqObs("p", 2*time.Second, 3, 10)); !fresh {
		t.Fatal("next report above the migrated mark must land")
	}
	// A retried (duplicate) migration must not roll the mark back.
	next.InstallSeqMark("p", epoch, seq)
	if e, q := next.SeqMark("p"); e != 3 || q != 10 {
		t.Fatalf("stale mark install rolled back to (%d, %d)", e, q)
	}
	// Neither must a crafted {epoch>0, seq:0} payload: seq 0 is the
	// unsequenced-ingest escape hatch, not a valid mark, and must not
	// pass the forward-only comparison.
	next.InstallSeqMark("p", 2, 0)
	if e, q := next.SeqMark("p"); e != 3 || q != 10 {
		t.Fatalf("zero-seq mark install regressed the mark to (%d, %d)", e, q)
	}
	next.InstallSeqMark("p", 3, 0)
	if e, q := next.SeqMark("p"); e != 3 || q != 10 {
		t.Fatalf("same-epoch zero-seq install regressed the mark to (%d, %d)", e, q)
	}
}

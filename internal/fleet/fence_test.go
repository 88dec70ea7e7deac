package fleet_test

import (
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// hookShard wraps a shard with gates on the calls the fenced-handover
// protocol must order: a migration's ExportDevice (a move's first call)
// and an in-flight IngestFrame can each be held open so the test can
// assert what is — and is not — allowed to proceed meanwhile.
type hookShard struct {
	fleet.Shard
	exportEntered chan string
	exportGate    chan struct{}
	batchEntered  chan int
	batchGate     chan struct{}
}

func (h *hookShard) ExportDevice(dev string) (bms.DeviceState, bool, error) {
	if h.exportEntered != nil {
		h.exportEntered <- dev
		<-h.exportGate
	}
	return h.Shard.ExportDevice(dev)
}

func (h *hookShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	if h.batchEntered != nil {
		h.batchEntered <- reports
		<-h.batchGate
	}
	return h.Shard.IngestFrame(frame, reports)
}

// seqReport fabricates a sequenced single-beacon report.
func seqReport(b *building.Building, dev string, at float64, seq uint64) transport.Report {
	bc := b.Beacons[0]
	return transport.Report{
		Device: dev, AtSeconds: at, Epoch: 1, Seq: seq,
		Beacons: []transport.BeaconReport{{ID: bc.ID.String(), Distance: 1.0, RSSI: -62}},
	}
}

// fenceFixture is a 2-shard gateway with both shards hooked, plus a
// clean single reference server for byte-identical comparison.
type fenceFixture struct {
	b     *building.Building
	gw    *fleet.Gateway
	hooks []*hookShard
	ref   *bms.Server
}

func newFenceFixture(t *testing.T) *fenceFixture {
	t.Helper()
	b := building.PaperHouse()
	f := &fenceFixture{b: b, ref: newServer(t, b)}
	names := []string{"shard-0", "shard-1"}
	ring := make([]fleet.Shard, len(names))
	for i, name := range names {
		ls, err := fleet.NewLocalShard(name, newServer(t, b))
		if err != nil {
			t.Fatal(err)
		}
		h := &hookShard{Shard: ls}
		f.hooks = append(f.hooks, h)
		ring[i] = h
	}
	gw, err := fleet.New(ring, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	return f
}

// send routes the report through the gateway AND the reference server.
func (f *fenceFixture) send(t *testing.T, r transport.Report) {
	t.Helper()
	if _, err := f.gw.Ingest(r); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ref.Ingest(r); err != nil {
		t.Fatal(err)
	}
}

// assertMatchesReference byte-compares the gateway's federated views
// with the clean single server — the exact-handover pin.
func (f *fenceFixture) assertMatchesReference(t *testing.T) {
	t.Helper()
	occ, err := f.gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, occ), mustJSON(t, f.ref.Occupancy()); string(got) != string(want) {
		t.Fatalf("occupancy diverged across handover\n got: %s\nwant: %s", got, want)
	}
	events, err := f.gw.Events()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, events), mustJSON(t, f.ref.Events()); string(got) != string(want) {
		t.Fatalf("events diverged across handover\n got: %s\nwant: %s", got, want)
	}
	dwell, err := f.gw.DwellTotals()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, dwell), mustJSON(t, f.ref.DwellTotals()); string(got) != string(want) {
		t.Fatalf("dwell diverged across handover\n got: %s\nwant: %s", got, want)
	}
}

func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestFenceBlocksIngestDuringMove pins the first half of the fenced
// handover: while a device's state is mid-migration (the old owner's
// export held open), a new report for that device must wait on the
// fence — under the unfenced protocol it would race to the new owner
// and be overwritten by the later install. After the fence lifts, the
// report lands on the new owner and the federated views stay
// byte-identical to a clean single server.
func TestFenceBlocksIngestDuringMove(t *testing.T) {
	f := newFenceFixture(t)
	const dev = "mover"
	for i := 0; i < 3; i++ {
		f.send(t, seqReport(f.b, dev, float64(10*i), uint64(i+1)))
	}
	owner, err := f.gw.ShardFor(dev)
	if err != nil {
		t.Fatal(err)
	}

	exportEntered := make(chan string, 1)
	exportGate := make(chan struct{})
	for _, h := range f.hooks {
		h.exportEntered, h.exportGate = exportEntered, exportGate
	}

	markDone := make(chan struct{})
	go func() {
		f.gw.MarkDown(owner)
		close(markDone)
	}()
	select {
	case got := <-exportEntered:
		if got != dev {
			t.Errorf("migration exporting %q, expected %q", got, dev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("migration never reached the old owner's export")
	}

	// The move is open: an ingest for the moving device must be fenced.
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		if _, err := f.gw.Ingest(seqReport(f.b, dev, 30, 4)); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-ingestDone:
		t.Fatal("ingest for a mid-migration device completed before the fence lifted")
	case <-time.After(100 * time.Millisecond):
	}

	close(exportGate)
	await(t, "migration", markDone)
	await(t, "fenced ingest", ingestDone)
	if _, err := f.ref.Ingest(seqReport(f.b, dev, 30, 4)); err != nil {
		t.Fatal(err)
	}

	if newOwner, err := f.gw.ShardFor(dev); err != nil || newOwner == owner {
		t.Fatalf("device still owned by drained shard %d (err %v)", owner, err)
	}
	// Restore the drained shard (committed events are history and stay
	// on the shard that committed them — the federation is only complete
	// with every event-holding shard healthy), then pin byte-equality.
	for _, h := range f.hooks {
		h.exportEntered, h.exportGate = nil, nil
	}
	f.gw.MarkUp(owner)
	f.assertMatchesReference(t)
}

// TestFenceDrainsInFlightDelivery pins the second half: a delivery
// already in flight to the old owner when the routing flips must be
// drained to completion before the state moves — under the unfenced
// protocol its report would land between the move's export and its evict
// and be lost with the old owner's state.
func TestFenceDrainsInFlightDelivery(t *testing.T) {
	f := newFenceFixture(t)
	const dev = "mover"
	for i := 0; i < 2; i++ {
		f.send(t, seqReport(f.b, dev, float64(10*i), uint64(i+1)))
	}
	owner, err := f.gw.ShardFor(dev)
	if err != nil {
		t.Fatal(err)
	}

	batchEntered := make(chan int, 1)
	batchGate := make(chan struct{})
	for _, h := range f.hooks {
		h.batchEntered, h.batchGate = batchEntered, batchGate
	}

	// An in-flight delivery, held open inside the old owner.
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		if _, err := f.gw.IngestBatch([]transport.Report{seqReport(f.b, dev, 20, 3)}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-batchEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never reached the shard")
	}
	for _, h := range f.hooks {
		h.batchEntered = nil // only the held batch is gated
	}

	markDone := make(chan struct{})
	go func() {
		f.gw.MarkDown(owner)
		close(markDone)
	}()
	select {
	case <-markDone:
		t.Fatal("migration completed with a delivery still in flight to the old owner")
	case <-time.After(100 * time.Millisecond):
	}

	close(batchGate)
	await(t, "in-flight batch", batchDone)
	await(t, "migration", markDone)
	if _, err := f.ref.Ingest(seqReport(f.b, dev, 20, 3)); err != nil {
		t.Fatal(err)
	}

	// The drained report's effect must have travelled with the state.
	if newOwner, err := f.gw.ShardFor(dev); err != nil || newOwner == owner {
		t.Fatalf("device still owned by drained shard %d (err %v)", owner, err)
	}
	for _, h := range f.hooks {
		h.batchEntered, h.batchGate = nil, nil
	}
	f.gw.MarkUp(owner)
	f.assertMatchesReference(t)
}

// TestRebuildRegistry pins the restartable gateway: a fresh gateway
// over shards that already hold device state knows nothing until
// RebuildRegistry queries their device sets; afterwards a drain
// migrates every recovered device exactly as the original gateway
// would have.
func TestRebuildRegistry(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 3, 2, 200, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := newServer(t, b)
	devices := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for i := 0; i < 3; i++ {
		for d, dev := range devices {
			r := seqReport(b, dev, float64(10*i+d), uint64(i+1))
			if _, err := g1.Ingest(r); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// "Restart": a new gateway over the same shards, registry empty.
	g2, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := g2.RebuildRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(devices) {
		t.Fatalf("rebuilt registry holds %d devices, want %d", n, len(devices))
	}

	// A post-restart drain must migrate the recovered devices: if the
	// registry were empty the drained shard's state would simply vanish
	// from the federated views. (Committed events stay behind on the
	// drained shard by design, so only the migrated state is compared
	// while it is down.)
	g2.MarkDown(0)
	occ, err := g2.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, occ), mustJSON(t, ref.Occupancy()); string(got) != string(want) {
		t.Fatalf("occupancy after post-restart drain diverged\n got: %s\nwant: %s", got, want)
	}
	g2.MarkUp(0)
	events, err := g2.Events()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, events), mustJSON(t, ref.Events()); string(got) != string(want) {
		t.Fatalf("events after restore diverged\n got: %s\nwant: %s", got, want)
	}
}

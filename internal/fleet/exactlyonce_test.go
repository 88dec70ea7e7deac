package fleet_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/fleet/fleettest"
	"occusim/internal/occupancy"
	"occusim/internal/transport"
)

// stampStream sequences an interleaved report stream in place, as the
// devices' batching uplinks would: per-device monotonic seqs under one
// epoch.
func stampStream(stream []transport.Report, epoch uint64) {
	q := transport.NewSequencer(epoch)
	for i := range stream {
		q.Stamp(&stream[i])
	}
}

// ingestRetried delivers one batch through the gateway with bounded
// whole-batch retransmission — the client-side retry loop
// transport.RetryPolicy implements for real uplinks.
func ingestRetried(t *testing.T, gw *fleet.Gateway, batch []transport.Report) []string {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		rooms, err := gw.IngestBatch(batch)
		if err == nil {
			return rooms
		}
		lastErr = err
	}
	t.Fatalf("batch never delivered after retries: %v", lastErr)
	return nil
}

// fleetViews gathers the three federated views for byte comparison.
func fleetViews(t *testing.T, gw *fleet.Gateway) (occ, events, dwell []byte) {
	t.Helper()
	o, err := gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	e, err := gw.Events()
	if err != nil {
		t.Fatal(err)
	}
	d, err := gw.DwellTotals()
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, o), mustJSON(t, e), mustJSON(t, d)
}

// TestFleetFlakyShardExactlyOnce is the ROADMAP at-least-once bug as a
// regression test: a fleet whose shards fail a fraction of batch calls
// — half of them AFTER committing — fed with whole-batch
// retransmissions until each batch is acknowledged, produces
// byte-identical occupancy, events and dwell to a clean single server
// fed the same reports exactly once. Before per-device sequence
// numbers, the retried committed sub-batches advanced the debounce
// twice and committed transitions early.
func TestFleetFlakyShardExactlyOnce(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)

	single := newServer(t, b)
	if _, err := single.InstallModel(snap); err != nil {
		t.Fatal(err)
	}

	pool, err := fleet.NewLocalPool(b, 4, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	flakies := make([]*fleettest.FlakyShard, len(pool.Shards))
	shards := make([]fleet.Shard, len(pool.Shards))
	for i, s := range pool.Shards {
		flakies[i] = &fleettest.FlakyShard{Shard: s, FailEvery: 3}
		shards[i] = flakies[i]
	}
	gw, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}

	stream := synthStream(b, 16, 60, 9)
	stampStream(stream, 1)
	const chunk = 48
	for i := 0; i < len(stream); i += chunk {
		j := min(i+chunk, len(stream))
		if _, err := single.IngestBatch(stream[i:j]); err != nil {
			t.Fatal(err)
		}
		ingestRetried(t, gw, stream[i:j])
	}

	injected := 0
	for _, f := range flakies {
		injected += f.InjectedFailures()
	}
	if injected == 0 {
		t.Fatal("no failures were injected — the test is vacuous")
	}

	occ, events, dwell := fleetViews(t, gw)
	if want := mustJSON(t, single.Occupancy()); !bytes.Equal(occ, want) {
		t.Fatalf("occupancy under retries differs:\n%s\nvs clean single:\n%s", occ, want)
	}
	if want := mustJSON(t, single.Events()); !bytes.Equal(events, want) {
		t.Fatalf("events under retries differ:\n%s\nvs clean single:\n%s", events, want)
	}
	if want := mustJSON(t, single.DwellTotals()); !bytes.Equal(dwell, want) {
		t.Fatalf("dwell under retries differs:\n%s\nvs clean single:\n%s", dwell, want)
	}
}

// TestFleetFailBackNoStaleResidue is the ROADMAP stale-residue bug as
// a regression test: after a MarkDown→restore schedule, the temporary
// owner of a failed-over device no longer reports it in Snapshot or
// Rollup — its state migrated back with the device — and the federated
// views match a single server exactly.
func TestFleetFailBackNoStaleResidue(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)

	single := newServer(t, b)
	if _, err := single.InstallModel(snap); err != nil {
		t.Fatal(err)
	}

	pool, err := fleet.NewLocalPool(b, 4, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}

	stream := synthStream(b, 24, 90, 7)
	stampStream(stream, 1)
	third := len(stream) / 3

	feed := func(part []transport.Report) {
		if _, err := single.IngestBatch(part); err != nil {
			t.Fatal(err)
		}
		if _, err := gw.IngestBatch(part); err != nil {
			t.Fatal(err)
		}
	}
	feed(stream[:third])

	// Pick a victim shard that owns at least one device, and remember
	// its devices.
	const victim = 2
	ownedBefore := map[string]bool{}
	for d := 0; d < 24; d++ {
		name := fmt.Sprintf("crowd-%03d", d)
		idx, err := gw.ShardFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if idx == victim {
			ownedBefore[name] = true
		}
	}
	if len(ownedBefore) == 0 {
		t.Fatal("victim shard owns no devices — pick another")
	}

	gw.MarkDown(victim)
	// Drain migration: the victim must hold no device state now.
	if occ := pool.Servers[victim].Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("drained shard still holds %v", occ.Devices)
	}
	feed(stream[third : 2*third])

	// The failed-over devices live on temporary owners now.
	tmpOwner := map[string]int{}
	for name := range ownedBefore {
		idx, err := gw.ShardFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if idx == victim {
			t.Fatalf("device %s still routed to the drained shard", name)
		}
		tmpOwner[name] = idx
	}

	gw.MarkUp(victim)
	// Fail-back migration: no temporary owner may still report a moved
	// device — THE stale-residue bug.
	for name, idx := range tmpOwner {
		if room, present := pool.Servers[idx].Occupancy().Devices[name]; present {
			t.Fatalf("temporary owner shard-%d still reports migrated device %s in %q", idx, name, room)
		}
		if got, err := gw.ShardFor(name); err != nil || got != victim {
			t.Fatalf("device %s did not return to shard-%d: %d, %v", name, victim, got, err)
		}
	}
	feed(stream[2*third:])

	// Each device is counted exactly once fleet-wide...
	rollup := assertRollupMatchesViews(t, gw)
	occupants := 0
	for _, r := range rollup.Rooms {
		occupants += r.Occupants
	}
	if rollup.Devices != 24 || occupants != 24 {
		t.Fatalf("rollup counts %d devices, %d occupants — residue inflated the head count", rollup.Devices, occupants)
	}
	// ...and the whole schedule is invisible next to one big server.
	occ, events, dwell := fleetViews(t, gw)
	if want := mustJSON(t, single.Occupancy()); !bytes.Equal(occ, want) {
		t.Fatalf("occupancy after fail-back differs:\n%s\nvs single:\n%s", occ, want)
	}
	if want := mustJSON(t, single.Events()); !bytes.Equal(events, want) {
		t.Fatalf("events after fail-back differ:\n%s\nvs single:\n%s", events, want)
	}
	if want := mustJSON(t, single.DwellTotals()); !bytes.Equal(dwell, want) {
		t.Fatalf("dwell after fail-back differs:\n%s\nvs single:\n%s", dwell, want)
	}
}

// TestGatewayResidueTTLSweep pins the unreachable-owner path: when a
// crashed box comes back holding stale device state that migration
// never got to clean (it was unreachable at rebalance), the TTL sweep
// ages the residue out of the federated views instead of double
// counting the device forever.
func TestGatewayResidueTTLSweep(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)
	pool, err := fleet.NewLocalPool(b, 3, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{ResidueTTL: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}

	stream := synthStream(b, 12, 90, 3) // report clock runs to ~178 s
	stampStream(stream, 1)
	half := len(stream) / 2
	if _, err := gw.IngestBatch(stream[:half]); err != nil {
		t.Fatal(err)
	}

	// Plant residue: a copy of a live device's early state on a shard
	// that does not own it — exactly what a crashed-then-restored owner
	// holds when it could not be migrated from.
	victim := stream[0].Device
	owner, err := gw.ShardFor(victim)
	if err != nil {
		t.Fatal(err)
	}
	other := (owner + 1) % 3
	// Its LastAt sits inside the current TTL window (the report clock is
	// at ~88 s here), so it survives the next read and ages out once the
	// clock passes LastAt + TTL.
	pool.Servers[other].InstallDevice(0, bms.DeviceState{
		DeviceState: occupancy.DeviceState{
			Device: victim, Room: "bedroom-1", Seen: true, LastAt: 80 * time.Second,
			Dwell: map[string]time.Duration{"bedroom-1": 2 * time.Second},
		},
	})

	// Before the clock advances past the TTL the residue inflates the
	// head count (this is the bug being aged out).
	occ, err := gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	inflated := 0
	for _, n := range occ.Rooms {
		inflated += n
	}
	if inflated != 13 {
		t.Fatalf("setup: expected the planted residue to inflate 12 devices to 13 occupants, got %d", inflated)
	}

	// The crowd keeps reporting; the report clock moves ~178 s, far
	// past residue-LastAt + TTL. The next federated read sweeps.
	if _, err := gw.IngestBatch(stream[half:]); err != nil {
		t.Fatal(err)
	}
	occ, err = gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	occupants := 0
	for _, n := range occ.Rooms {
		occupants += n
	}
	if len(occ.Devices) != 12 || occupants != 12 {
		t.Fatalf("after TTL sweep: %d devices, %d occupants — residue survived", len(occ.Devices), occupants)
	}
	if room, present := pool.Servers[other].Occupancy().Devices[victim]; present {
		t.Fatalf("residue for %s still on shard-%d in %q", victim, other, room)
	}
	if room := pool.Servers[owner].Occupancy().Devices[victim]; room == "" {
		t.Fatal("the live copy was swept along with the residue")
	}
}

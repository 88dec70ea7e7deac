package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fingerprint"
	"occusim/internal/fleet"
	"occusim/internal/fleet/fleettest"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/rng"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// newServer builds one bms.Server over the paper house.
func newServer(t *testing.T, b *building.Building) *bms.Server {
	t.Helper()
	st, err := store.New(200)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := bms.NewServer(b, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// trainSnapshot fits a scene-analysis SVM on jittered survey
// fingerprints and returns its distributable snapshot.
func trainSnapshot(t *testing.T, b *building.Building, seed uint64) bms.ModelSnapshot {
	t.Helper()
	trainer := newServer(t, b)
	src := rng.New(seed)
	for _, room := range b.Rooms {
		for k := 0; k < 6; k++ {
			p := geom.Pt(
				room.Bounds.Min.X+(0.25+0.5*float64(k%2))*room.Bounds.Width(),
				room.Bounds.Min.Y+(0.25+0.25*float64(k%3))*room.Bounds.Height(),
			)
			sample := fingerprint.Sample{Room: room.Name, Distances: map[ibeacon.BeaconID]float64{}}
			for _, bc := range b.Beacons {
				d := p.Dist(bc.Pos) + src.Normal(0, 0.4)
				if d < 0.1 {
					d = 0.1
				}
				sample.Distances[bc.ID] = d
			}
			if err := trainer.AddFingerprint(sample); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := trainer.Train(10, 0.03, seed); err != nil {
		t.Fatal(err)
	}
	snap, ok := trainer.ModelSnapshot()
	if !ok {
		t.Fatal("trained server has no model snapshot")
	}
	return snap
}

// synthStream fabricates an interleaved multi-device report stream:
// every device reports each step, moving to a random room once a
// minute. Per-device order is nondecreasing in time; devices interleave
// time-major, as a gateway would see them arrive.
func synthStream(b *building.Building, devices, steps int, seed uint64) []transport.Report {
	src := rng.New(seed)
	type devState struct {
		name string
		pos  geom.Point
		src  *rng.Source
	}
	states := make([]devState, devices)
	for d := range states {
		states[d] = devState{name: fmt.Sprintf("crowd-%03d", d), src: src.Split(uint64(100 + d))}
	}
	var out []transport.Report
	for i := 0; i < steps; i++ {
		at := time.Duration(i) * 2 * time.Second
		for d := range states {
			st := &states[d]
			if i%30 == 0 {
				room := b.Rooms[st.src.Intn(len(b.Rooms))]
				st.pos = geom.Pt(
					st.src.Uniform(room.Bounds.Min.X+0.3, room.Bounds.Max.X-0.3),
					st.src.Uniform(room.Bounds.Min.Y+0.3, room.Bounds.Max.Y-0.3),
				)
			}
			rep := transport.Report{Device: st.name, AtSeconds: at.Seconds()}
			for _, bc := range b.Beacons {
				dist := st.pos.Dist(bc.Pos) + st.src.Normal(0, 0.5)
				if dist < 0.1 {
					dist = 0.1
				}
				rep.Beacons = append(rep.Beacons, transport.BeaconReport{
					ID: bc.ID.String(), Distance: dist, RSSI: -60 - 2*dist,
				})
			}
			out = append(out, rep)
		}
	}
	return out
}

// mustJSON marshals for byte-level comparison (Go sorts map keys).
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetMatchesSingleServer is the acceptance pin, extended for
// exactly-once ingest: the same sequenced report stream ingested
// through a 4-shard gateway — with transient shard failures injected
// (half of them after the shard committed, so the whole-batch
// retransmit re-delivers committed sub-batches) and a shard
// kill/restore schedule mid-run, so a MarkDown migration has moved
// state between shards — yields byte-identical federated head counts,
// enter/exit events, dwell and rollup to one bms.Server fed the same
// reports exactly once, and the same per-report room predictions. It
// holds over in-process shards and over HTTP shard clients alike: the
// gateway renders occupancy, dwell and the rollup from one merged
// summary, and that summary crosses the HTTP leg exactly.
func TestFleetMatchesSingleServer(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)
	t.Run("LocalShards", func(t *testing.T) {
		pool, err := fleet.OpenLocalPool(b, 4, 2, 200, "", store.FsyncBatch)
		if err != nil {
			t.Fatal(err)
		}
		fleetMatchesSingleServer(t, b, snap, pool.Shards)
	})
	t.Run("HTTPShards", func(t *testing.T) {
		shards := make([]fleet.Shard, 4)
		for i := range shards {
			ts := httptest.NewServer(newServer(t, b).Handler())
			t.Cleanup(ts.Close)
			hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = hs
		}
		fleetMatchesSingleServer(t, b, snap, shards)
	})
}

func fleetMatchesSingleServer(t *testing.T, b *building.Building, snap bms.ModelSnapshot, real []fleet.Shard) {
	single := newServer(t, b)
	if _, err := single.InstallModel(snap); err != nil {
		t.Fatal(err)
	}

	flakies := make([]*fleettest.FlakyShard, len(real))
	shards := make([]fleet.Shard, len(real))
	for i, s := range real {
		flakies[i] = &fleettest.FlakyShard{Shard: s, FailEvery: 4}
		shards[i] = flakies[i]
	}
	gw, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}

	stream := synthStream(b, 24, 90, 7)
	stampStream(stream, 1)
	const chunk = 64
	chunks := (len(stream) + chunk - 1) / chunk
	killAt, restoreAt := chunks/3, 2*chunks/3
	const victim = 1
	var singleRooms, fleetRooms []string
	for i, c := 0, 0; i < len(stream); i, c = i+chunk, c+1 {
		if c == killAt {
			gw.MarkDown(victim)
		}
		if c == restoreAt {
			gw.MarkUp(victim)
		}
		j := i + chunk
		if j > len(stream) {
			j = len(stream)
		}
		sr, err := single.IngestBatch(stream[i:j])
		if err != nil {
			t.Fatal(err)
		}
		fr := ingestRetried(t, gw, stream[i:j])
		singleRooms = append(singleRooms, sr...)
		fleetRooms = append(fleetRooms, fr...)
	}
	injected := 0
	for _, f := range flakies {
		injected += f.InjectedFailures()
	}
	if injected == 0 {
		t.Fatal("no shard failures were injected — the retry leg is vacuous")
	}
	if len(singleRooms) != len(fleetRooms) {
		t.Fatalf("room counts differ: %d vs %d", len(singleRooms), len(fleetRooms))
	}
	for i := range singleRooms {
		if singleRooms[i] != fleetRooms[i] {
			t.Fatalf("report %d: single predicted %q, fleet %q", i, singleRooms[i], fleetRooms[i])
		}
	}

	fleetOcc, err := gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, fleetOcc), mustJSON(t, single.Occupancy()); !bytes.Equal(got, want) {
		t.Fatalf("federated occupancy differs:\n%s\nvs single:\n%s", got, want)
	}
	fleetEvents, err := gw.Events()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, fleetEvents), mustJSON(t, single.Events()); !bytes.Equal(got, want) {
		t.Fatalf("federated events differ:\n%s\nvs single:\n%s", got, want)
	}
	fleetDwell, err := gw.DwellTotals()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, fleetDwell), mustJSON(t, single.DwellTotals()); !bytes.Equal(got, want) {
		t.Fatalf("federated dwell differs:\n%s\nvs single:\n%s", got, want)
	}

	// The rollup is the one the merged views render, and the one the
	// single server renders of itself.
	rollup := assertRollupMatchesViews(t, gw)
	if got, want := mustJSON(t, rollup), mustJSON(t, bms.RenderRollup(single.Summary())); !bytes.Equal(got, want) {
		t.Fatalf("federated rollup differs:\n%s\nvs single:\n%s", got, want)
	}
	if rollup.Devices != 24 {
		t.Fatalf("rollup devices = %d, want 24", rollup.Devices)
	}
	if rollup.Events != len(fleetEvents) {
		t.Fatalf("rollup events = %d, want %d", rollup.Events, len(fleetEvents))
	}
	occupants := 0
	for _, r := range rollup.Rooms {
		occupants += r.Occupants
	}
	if occupants != 24 {
		t.Fatalf("rollup occupants sum = %d, want 24", occupants)
	}
}

// TestInstallModelRejectsBeaconMismatch pins the snapshot validation
// InstallModel performs before touching the live classifier: a beacon
// list that disagrees with the model's trained feature dimension would
// scramble (or index out of range) every feature vector on the shard.
func TestInstallModelRejectsBeaconMismatch(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 5)
	srv := newServer(t, b)
	bad := snap
	bad.Beacons = snap.Beacons[:len(snap.Beacons)-1]
	if _, err := srv.InstallModel(bad); err == nil {
		t.Fatal("snapshot with a short beacon list should be rejected")
	}
	if _, ok := srv.ModelSnapshot(); ok {
		t.Fatal("failed install must not touch the live classifier, but a model is installed")
	}
	if _, err := srv.InstallModel(snap); err != nil {
		t.Fatalf("matching snapshot should install: %v", err)
	}
	if _, ok := srv.ModelSnapshot(); !ok {
		t.Fatal("no model installed after a matching snapshot")
	}
}

// TestGatewayRoutingDeterministicRebalance pins the consistent-hash
// contract: killing a shard moves only that shard's devices, the moved
// devices land deterministically, and recovery restores exactly the
// original assignment.
func TestGatewayRoutingDeterministicRebalance(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 4, 2, 100, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}

	const devices = 200
	before := make([]int, devices)
	owned := make([]int, 4)
	for d := 0; d < devices; d++ {
		idx, err := gw.ShardFor(fmt.Sprintf("crowd-%03d", d))
		if err != nil {
			t.Fatal(err)
		}
		before[d] = idx
		owned[idx]++
	}
	for i, n := range owned {
		if n == 0 {
			t.Fatalf("shard %d owns no devices of %d — ring badly unbalanced: %v", i, devices, owned)
		}
	}

	gw.MarkDown(2)
	after := make([]int, devices)
	moved := 0
	for d := 0; d < devices; d++ {
		idx, err := gw.ShardFor(fmt.Sprintf("crowd-%03d", d))
		if err != nil {
			t.Fatal(err)
		}
		after[d] = idx
		if idx == 2 {
			t.Fatalf("device %d routed to a down shard", d)
		}
		if before[d] != 2 && after[d] != before[d] {
			t.Fatalf("device %d moved from healthy shard %d to %d", d, before[d], after[d])
		}
		if before[d] == 2 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no devices were owned by the killed shard — test is vacuous")
	}

	// Recovery restores the exact original assignment.
	gw.MarkUp(2)
	for d := 0; d < devices; d++ {
		idx, err := gw.ShardFor(fmt.Sprintf("crowd-%03d", d))
		if err != nil {
			t.Fatal(err)
		}
		if idx != before[d] {
			t.Fatalf("device %d did not return to its original shard after recovery", d)
		}
	}

	// Re-routing is stable under repetition (pure function of the ring).
	for d := 0; d < devices; d++ {
		idx, _ := gw.ShardFor(fmt.Sprintf("crowd-%03d", d))
		if idx != before[d] {
			t.Fatalf("routing is not deterministic for device %d", d)
		}
	}
}

// TestMarkDownSurvivesHealthProbe pins the operator-drain contract:
// CheckHealth must not resurrect a shard an operator took out of
// routing, even though the shard itself reports healthy.
func TestMarkDownSurvivesHealthProbe(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 3, 2, 100, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gw.MarkDown(1)
	statuses := gw.CheckHealth()
	if !statuses[1].Down {
		t.Fatalf("health probe resurrected a drained shard: %+v", statuses)
	}
	if statuses[0].Down || statuses[2].Down {
		t.Fatalf("healthy shards marked down: %+v", statuses)
	}
	gw.MarkUp(1)
	statuses = gw.CheckHealth()
	if statuses[1].Down {
		t.Fatalf("MarkUp did not restore the shard: %+v", statuses)
	}
}

// TestGatewayAllShardsDown pins the terminal failure mode.
func TestGatewayAllShardsDown(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 2, 2, 100, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gw.MarkDown(0)
	gw.MarkDown(1)
	if _, err := gw.Ingest(transport.Report{Device: "p", AtSeconds: 1}); err == nil {
		t.Fatal("ingest with no healthy shards should fail")
	}
	if _, err := gw.IngestBatch([]transport.Report{{Device: "p", AtSeconds: 1}}); err == nil {
		t.Fatal("batch ingest with no healthy shards should fail")
	}
}

// TestGatewayBatchMatchesSingleSends pins batch reassembly: the rooms a
// split batch returns are positionally identical to routing each report
// alone.
func TestGatewayBatchMatchesSingleSends(t *testing.T) {
	b := building.PaperHouse()
	mk := func() *fleet.Gateway {
		pool, err := fleet.OpenLocalPool(b, 3, 2, 100, "", store.FsyncBatch)
		if err != nil {
			t.Fatal(err)
		}
		gw, err := fleet.New(pool.Shards, fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return gw
	}
	stream := synthStream(b, 9, 20, 3)

	one := mk()
	var singles []string
	for _, rep := range stream {
		room, err := one.Ingest(rep)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, room)
	}

	batched := mk()
	rooms, err := batched.IngestBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(rooms) != len(singles) {
		t.Fatalf("batch returned %d rooms, want %d", len(rooms), len(singles))
	}
	for i := range rooms {
		if rooms[i] != singles[i] {
			t.Fatalf("report %d: batch room %q, single room %q", i, rooms[i], singles[i])
		}
	}

	// Routed accounting covered the full stream.
	total := int64(0)
	for _, s := range batched.Statuses() {
		total += s.Routed
	}
	if total != int64(len(stream)) {
		t.Fatalf("routed %d reports, want %d", total, len(stream))
	}
}

// TestDistributeModelReachesEveryShard checks that after distribution
// every shard classifies with the same trained model as the trainer.
func TestDistributeModelReachesEveryShard(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 99)
	pool, err := fleet.OpenLocalPool(b, 3, 2, 100, "", store.FsyncBatch)
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
	for i, srv := range pool.Servers {
		got, ok := srv.ModelSnapshot()
		if !ok {
			t.Fatalf("shard %d has no model snapshot", i)
		}
		if got.Version != snap.Version {
			t.Fatalf("shard %d model version = %d, want %d", i, got.Version, snap.Version)
		}
		if !bytes.Equal(got.Model, snap.Model) {
			t.Fatalf("shard %d model blob differs from the distributed one", i)
		}
	}
}

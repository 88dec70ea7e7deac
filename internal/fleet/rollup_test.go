package fleet_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/occupancy"
	"occusim/internal/raceflag"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// rollupFromViews renders the rollup the way Gateway.Rollup did before
// the shards kept tallies: from the three federated views, counting
// enters and exits by walking the whole merged event history. It is the
// reference the summary-based rollup must stay byte-identical to.
func rollupFromViews(t *testing.T, gw *fleet.Gateway) fleet.Rollup {
	t.Helper()
	snap, err := gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	events, err := gw.Events()
	if err != nil {
		t.Fatal(err)
	}
	dwell, err := gw.DwellTotals()
	if err != nil {
		t.Fatal(err)
	}
	out := fleet.Rollup{Devices: len(snap.Devices), Events: len(events), Rooms: map[string]fleet.RoomRollup{}}
	for room, n := range snap.Rooms {
		r := out.Rooms[room]
		r.Occupants = n
		out.Rooms[room] = r
	}
	for _, e := range events {
		r := out.Rooms[e.Room]
		if e.Kind == occupancy.Enter {
			r.Enters++
		} else {
			r.Exits++
		}
		out.Rooms[e.Room] = r
	}
	for room, d := range dwell {
		r := out.Rooms[room]
		r.DwellSeconds = d.Seconds()
		out.Rooms[room] = r
	}
	return out
}

// assertRollupMatchesViews requires a quiescent fleet's rollup to be the
// bytes the event-walking renderer produces for the same state.
func assertRollupMatchesViews(t *testing.T, gw *fleet.Gateway) fleet.Rollup {
	t.Helper()
	rollup, err := gw.Rollup()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, rollup), mustJSON(t, rollupFromViews(t, gw)); !bytes.Equal(got, want) {
		t.Fatalf("rollup differs from the one walked out of the event history:\n%s\nvs walked:\n%s", got, want)
	}
	return rollup
}

// hopReport places the device beside one beacon; alternating the beacon
// between two rooms moves the device on every report.
func hopReport(b *building.Building, dev string, beacon int, at float64, seq uint64) transport.Report {
	rep := transport.Report{Device: dev, AtSeconds: at, Epoch: 1, Seq: seq}
	for i, bc := range b.Beacons {
		d := 12.0
		if i == beacon {
			d = 1.0
		}
		rep.Beacons = append(rep.Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: d, RSSI: -60 - d})
	}
	return rep
}

// hopBeacons picks two beacons in different rooms.
func hopBeacons(t testing.TB, b *building.Building) (int, int) {
	t.Helper()
	for i, bc := range b.Beacons {
		if bc.Room != b.Beacons[0].Room {
			return 0, i
		}
	}
	t.Fatal("the building has all its beacons in one room")
	return 0, 0
}

// hopLaps feeds the gateway laps in which every device changes room on
// every report (debounce 1): 2 events a report once a device is placed.
func hopLaps(t testing.TB, gw *fleet.Gateway, b *building.Building, devices []string, from, to int) {
	t.Helper()
	near, far := hopBeacons(t, b)
	batch := make([]transport.Report, 0, len(devices))
	for lap := from; lap < to; lap++ {
		batch = batch[:0]
		for d, dev := range devices {
			beacon := near
			if (lap+d)%2 == 1 {
				beacon = far
			}
			batch = append(batch, hopReport(b, dev, beacon, float64(2*lap), uint64(lap+1)))
		}
		if _, err := gw.IngestBatch(batch); err != nil {
			t.Error(err)
			return
		}
	}
}

func deviceNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%03d", prefix, i)
	}
	return out
}

// TestRollupNeverTorn: a rollup read beside live ingest must never show
// a device in a room it has no enter event for. With no TTL and no
// migration every room satisfies occupants = enters − exits at every
// instant; a rollup assembled from separate occupancy and events reads
// breaks it whenever a device moves between the two. One summary read
// per shard takes each stripe's occupants and tallies under one lock, so
// every reply holds the identity.
func TestRollupNeverTorn(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 4, 1, 50, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, laps = 4, 400
	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			hopLaps(t, gw, b, deviceNames(fmt.Sprintf("w%d", w), 8), 0, laps)
		}(w)
	}
	polls, beside, firstEvents, lastEvents := 0, 0, -1, 0
	for live := true; live; polls++ {
		live = running.Load() > 0
		rollup, err := gw.Rollup()
		if err != nil {
			t.Fatal(err)
		}
		for room, r := range rollup.Rooms {
			if r.Occupants != r.Enters-r.Exits {
				t.Fatalf("poll %d: torn rollup: %q holds %d occupants but %d enters − %d exits", polls, room, r.Occupants, r.Enters, r.Exits)
			}
		}
		if firstEvents < 0 {
			firstEvents = rollup.Events
		}
		if live {
			beside++
		}
		lastEvents = rollup.Events
	}
	wg.Wait()
	if beside < 10 || lastEvents <= firstEvents {
		t.Fatalf("vacuous: %d polls beside ingest, events %d → %d", beside, firstEvents, lastEvents)
	}
	if want := 2*writers*8*laps - writers*8; lastEvents != want {
		t.Fatalf("the run committed %d events, want %d", lastEvents, want)
	}
}

// TestRollupCountsResidueOnce: while one device is tracked on two shards
// — a recovered owner's stale copy — Rollup.Devices stays the union of
// the shards' device names (12) while the occupants stay their sum (13),
// exactly as the event-walking rollup had it.
func TestRollupCountsResidueOnce(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 3, 2, 200, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}
	stream := synthStream(b, 12, 90, 3)
	stampStream(stream, 1)
	if _, err := gw.IngestBatch(stream); err != nil {
		t.Fatal(err)
	}
	victim := stream[0].Device
	owner, err := gw.ShardFor(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Servers[(owner+1)%3].InstallDevice(0, bms.DeviceState{
		DeviceState: occupancy.DeviceState{
			Device: victim, Room: "bedroom-1", Seen: true, LastAt: 80 * time.Second,
			Dwell: map[string]time.Duration{"bedroom-1": 2 * time.Second},
		},
	}); err != nil {
		t.Fatal(err)
	}
	rollup := assertRollupMatchesViews(t, gw)
	occupants := 0
	for _, r := range rollup.Rooms {
		occupants += r.Occupants
	}
	if rollup.Devices != 12 || occupants != 13 {
		t.Fatalf("rollup counts %d devices and %d occupants, want the union 12 and the sum 13", rollup.Devices, occupants)
	}
}

// barrier holds each round until n callers are inside it, then lets them
// all through and re-arms for the next round.
type barrier struct {
	mu    sync.Mutex
	n, in int
	open  chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, open: make(chan struct{})} }

func (b *barrier) arrive() error {
	b.mu.Lock()
	open := b.open
	if b.in++; b.in == b.n {
		b.in, b.open = 0, make(chan struct{})
		close(open)
	}
	b.mu.Unlock()
	select {
	case <-open:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("the other shards' calls never started: the round is sequential")
	}
}

// barrierShard parks every call a many-shard round makes — the reads,
// model install, expiry, health, the device list and the lease claim —
// until all of the fleet's shards are inside theirs, then fails it when
// fail is set.
type barrierShard struct {
	fleet.Shard
	round *barrier
	fail  error
}

func (s *barrierShard) enter() error {
	if err := s.round.arrive(); err != nil {
		return err
	}
	return s.fail
}

func (s *barrierShard) Summary() (occupancy.Summary, error) {
	if err := s.enter(); err != nil {
		return occupancy.Summary{}, err
	}
	return s.Shard.Summary()
}

func (s *barrierShard) Events() ([]occupancy.Event, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	return s.Shard.Events()
}

func (s *barrierShard) InstallModel(snap bms.ModelSnapshot) error {
	if err := s.enter(); err != nil {
		return err
	}
	return s.Shard.InstallModel(snap)
}

func (s *barrierShard) ExpireBefore(cutoff time.Duration) ([]string, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	return s.Shard.ExpireBefore(cutoff)
}

func (s *barrierShard) Health() error {
	if err := s.enter(); err != nil {
		return err
	}
	return s.Shard.Health()
}

func (s *barrierShard) Devices() ([]string, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	return s.Shard.Devices()
}

func (s *barrierShard) Claim(epoch uint64, leader string) (uint64, string, error) {
	if err := s.enter(); err != nil {
		return 0, "", err
	}
	return s.Shard.Claim(epoch, leader)
}

// TestManyShardCallsAreOneConcurrentRound: every call the gateway makes
// to many shards has every shard's call in flight at once — it costs the
// slowest shard, not the sum — and when shards 1 and 3 fail, each call
// keeps its own rule: a read reports the first failure by shard order,
// model distribution and the registry rebuild name both, the sweep keeps
// what the others expired, the probe marks both down, and the lease claim
// falls short of quorum.
func TestManyShardCallsAreOneConcurrentRound(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 7)
	stream := synthStream(b, 12, 10, 3)
	names := func(t *testing.T, err error, want ...string) {
		t.Helper()
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("the call over failing shards 1 and 3 reported %v, want it to name %q", err, w)
			}
		}
	}
	rows := []struct {
		name string
		// call makes the many-shard call; with shards 1 and 3 failing it
		// checks the call's own rule, else that it succeeded.
		call func(t *testing.T, gw *fleet.Gateway, failing bool)
	}{
		{"Rollup", func(t *testing.T, gw *fleet.Gateway, failing bool) {
			_, err := gw.Rollup()
			if !failing {
				must(t, err)
				return
			}
			names(t, err, "shard-1", "cable unplugged")
			if strings.Contains(err.Error(), "shard-3") {
				t.Fatalf("the read reported %v, want only the first failure by shard order", err)
			}
		}},
		{"Events", func(t *testing.T, gw *fleet.Gateway, failing bool) {
			_, err := gw.Events()
			if !failing {
				must(t, err)
				return
			}
			names(t, err, "shard-1", "cable unplugged")
		}},
		{"DistributeModel", func(t *testing.T, gw *fleet.Gateway, failing bool) {
			err := gw.DistributeModel(snap)
			if !failing {
				must(t, err)
				return
			}
			names(t, err, "shard-1", "cable unplugged", "shard-3", "disk on fire")
		}},
		{"ExpireBefore", func(t *testing.T, gw *fleet.Gateway, failing bool) {
			if !failing {
				if got := gw.ExpireBefore(0); len(got) != 0 {
					t.Fatalf("a sweep before any report expired %v", got)
				}
				return
			}
			var want []string
			for d := 0; d < 12; d++ {
				dev := fmt.Sprintf("crowd-%03d", d)
				if owner, _ := gw.ShardFor(dev); owner == 0 || owner == 2 {
					want = append(want, dev)
				}
			}
			if got := gw.ExpireBefore(time.Hour); len(want) == 0 || strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("the sweep over failing shards 1 and 3 expired %v, want shards 0 and 2's %v", got, want)
			}
		}},
		{"CheckHealth", func(t *testing.T, gw *fleet.Gateway, failing bool) {
			for i, st := range gw.CheckHealth() {
				bad := failing && i%2 == 1
				if st.Down != bad || (st.Err != "") != bad {
					t.Fatalf("shard %d after the probe: %+v, want down %v", i, st, bad)
				}
			}
		}},
		{"RebuildRegistry", func(t *testing.T, gw *fleet.Gateway, failing bool) {
			_, err := gw.RebuildRegistry()
			if !failing {
				must(t, err)
				return
			}
			names(t, err, "shard-1", "cable unplugged", "shard-3", "disk on fire")
		}},
		{"LeaseController.Claim", func(t *testing.T, gw *fleet.Gateway, failing bool) {
			err := controller(t, gw, "http://gw").Claim()
			if !failing {
				must(t, err)
				return
			}
			names(t, err, "won 2/4 shards (quorum 3)")
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			pool, err := fleet.OpenLocalPool(b, 4, 2, 50, "", store.FsyncBatch)
			if err != nil {
				t.Fatal(err)
			}
			round := newBarrier(len(pool.Shards))
			barriers := make([]*barrierShard, len(pool.Shards))
			ring := make([]fleet.Shard, len(pool.Shards))
			for i, s := range pool.Shards {
				barriers[i] = &barrierShard{Shard: s, round: round}
				ring[i] = barriers[i]
			}
			gw, err := fleet.New(ring, fleet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gw.IngestBatch(stream); err != nil {
				t.Fatal(err)
			}
			row.call(t, gw, false)
			barriers[3].fail = errors.New("disk on fire")
			barriers[1].fail = errors.New("cable unplugged")
			row.call(t, gw, true)
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocBudgetRollup pins the rollup's complexity, not a time: what
// Gateway.Rollup allocates, and what a shard's rollup reply weighs, are
// set by the fleet's current state and do not move when its event
// history is a hundred times longer. `make allocs` runs it.
func TestAllocBudgetRollup(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	b := building.PaperHouse()
	devices := deviceNames("dev", 16)
	// 16 devices, 2 events a report: ≈ 1 k and ≈ 100 k events a shard
	// over 2 shards. Both lap counts are even, so both fleets end with
	// every device in the same room.
	const shortLaps, longLaps = 64, 6400
	grow := func(laps int) (*fleet.Gateway, *fleet.LocalPool) {
		pool, err := fleet.OpenLocalPool(b, 2, 1, 10, "", store.FsyncBatch)
		if err != nil {
			t.Fatal(err)
		}
		gw, err := fleet.New(pool.Shards, fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		hopLaps(t, gw, b, devices, 0, laps)
		return gw, pool
	}
	short, shortPool := grow(shortLaps)
	long, longPool := grow(longLaps)

	measure := func(gw *fleet.Gateway) (float64, fleet.Rollup) {
		var rollup fleet.Rollup
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if rollup, err = gw.Rollup(); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, rollup
	}
	shortAllocs, shortRollup := measure(short)
	longAllocs, longRollup := measure(long)
	if shortRollup.Events < 2000 || longRollup.Events < 50*shortRollup.Events || shortRollup.Devices != longRollup.Devices {
		t.Fatalf("vacuous: %d events over %d devices against %d over %d", shortRollup.Events, shortRollup.Devices, longRollup.Events, longRollup.Devices)
	}
	t.Logf("Gateway.Rollup: %v allocations with %d committed events, %v with %d", shortAllocs, shortRollup.Events, longAllocs, longRollup.Events)
	if shortAllocs != longAllocs {
		t.Errorf("Gateway.Rollup allocates %v times over %d events and %v over %d: its cost follows the history", shortAllocs, shortRollup.Events, longAllocs, longRollup.Events)
	}

	// The same two histories behind real HTTP: the reply may differ only
	// in the digits of its counters and dwell.
	reply := func(pool *fleet.LocalPool) (int, occupancy.Summary) {
		ts := httptest.NewServer(pool.Servers[0].Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + bms.ShardRollupPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", bms.ShardRollupPath, resp.Status, err)
		}
		hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := hs.Summary()
		if err != nil {
			t.Fatal(err)
		}
		return len(body), sum
	}
	shortLen, shortSum := reply(shortPool)
	longLen, longSum := reply(longPool)
	t.Logf("shard rollup reply: %d bytes with %d committed events, %d bytes with %d", shortLen, shortSum.Events, longLen, longSum.Events)
	if slack := 16 * (1 + len(longSum.Rooms)); longLen-shortLen > slack || longSum.Events < 50*shortSum.Events {
		t.Errorf("the shard rollup reply grew %d → %d bytes (allowed: %d bytes of digits) as the history grew %d → %d events", shortLen, longLen, slack, shortSum.Events, longSum.Events)
	}
	if want := longPool.Servers[0].Summary(); !bytes.Equal(mustJSON(t, longSum), mustJSON(t, want)) {
		t.Errorf("the summary an HTTPShard reads differs from the server's own:\n%+v\nvs\n%+v", longSum, want)
	}
}

// TestRollupSingleBoxParity: a client cannot tell a fleet from a single
// box on GET /api/v1/rollup — one server and a one-shard gateway over it
// answer it byte for byte.
func TestRollupSingleBoxParity(t *testing.T) {
	b := building.PaperHouse()
	srv := newServer(t, b)
	shard, err := fleet.NewLocalShard("only", srv)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New([]fleet.Shard{shard}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}
	stream := synthStream(b, 8, 90, 5)
	stampStream(stream, 1)
	if _, err := gw.IngestBatch(stream); err != nil {
		t.Fatal(err)
	}
	get := func(h http.Handler) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/rollup", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /api/v1/rollup answered %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	box, face := get(srv.Handler()), get(fleet.Handler(gw, fleet.HandlerOptions{}))
	if !bytes.Equal(box, face) {
		t.Fatalf("the single server answers\n%s\nthe gateway\n%s", box, face)
	}
	var rollup fleet.Rollup
	if err := json.Unmarshal(face, &rollup); err != nil {
		t.Fatal(err)
	}
	if rollup.Devices != 8 || rollup.Events == 0 {
		t.Fatalf("vacuous: %+v", rollup)
	}
}

// TestFederatedReadTelemetry: every federated view records its gather
// round in fleet_read_seconds{view=…}, a shard that fails a read is
// counted under its own name, and the exposition stays well-formed.
func TestFederatedReadTelemetry(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 2, 2, 50, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	broken := &barrierShard{Shard: pool.Shards[1], round: newBarrier(1)}
	gw, err := fleet.New([]fleet.Shard{pool.Shards[0], broken}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	gw.Instrument(met)
	if _, err := gw.Occupancy(); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Events(); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.DwellTotals(); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Rollup(); err != nil {
		t.Fatal(err)
	}
	broken.fail = errors.New("unreachable")
	if _, err := gw.Rollup(); err == nil {
		t.Fatal("a rollup over a failing shard succeeded")
	}

	snap := met.TakeSnapshot()
	for view, want := range map[string]uint64{"occupancy": 1, "events": 1, "dwell": 1, "rollup": 2} {
		if got := snap.Histograms[`fleet_read_seconds{view="`+view+`"}`].Count; got != want {
			t.Errorf("fleet_read_seconds{view=%q} recorded %d rounds, want %d", view, got, want)
		}
	}
	if got := snap.Counters[`fleet_read_errors_total{shard="shard-1"}`]; got != 1 {
		t.Errorf("fleet_read_errors_total{shard=shard-1} = %v, want 1", got)
	}
	if got := snap.Counters[`fleet_read_errors_total{shard="shard-0"}`]; got != 0 {
		t.Errorf("fleet_read_errors_total{shard=shard-0} = %v, want 0", got)
	}
	rec := httptest.NewRecorder()
	fleet.Handler(gw, fleet.HandlerOptions{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := obs.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("the gateway's exposition is malformed: %v", err)
	}
	for _, want := range []string{
		"# TYPE fleet_read_seconds histogram",
		`fleet_read_seconds_count{view="rollup"} 2`,
		"# TYPE fleet_read_errors_total counter",
		`fleet_read_errors_total{shard="shard-1"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestIngestTelemetryCountsSingleReportsAsBatches: Gateway.Ingest is a
// batch of one, on the gateway's histogram and on the owning shard's.
func TestIngestTelemetryCountsSingleReportsAsBatches(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 1, 2, 50, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gwMet, shardMet := obs.New(), obs.New()
	gw.Instrument(gwMet)
	pool.Servers[0].Instrument(shardMet)
	stream := synthStream(b, 3, 4, 9)
	for _, r := range stream[:3] {
		if _, err := gw.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gw.IngestBatch(stream[3:]); err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]obs.Snapshot{"fleet_ingest_batch_size": gwMet.TakeSnapshot(), "bms_ingest_batch_size": shardMet.TakeSnapshot()} {
		if h := snap.Histograms[name]; h.Count != 4 || h.Sum != int64(len(stream)) {
			t.Errorf("%s saw %d batches of %d reports in all, want 4 of %d", name, h.Count, h.Sum, len(stream))
		}
	}
}

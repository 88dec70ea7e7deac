package bms

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// rollupFromViews renders a server's rollup the way the gateway used to
// — by walking its whole event log — as the reference the one-pass
// summary is checked against.
func rollupFromViews(s *Server) Rollup {
	occ, events := s.Occupancy(), s.Events()
	out := Rollup{Devices: len(occ.Devices), Events: len(events), Rooms: map[string]RoomRollup{}}
	for room, n := range occ.Rooms {
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
	for room, d := range s.DwellTotals() {
		r := out.Rooms[room]
		r.DwellSeconds = d.Seconds()
		out.Rooms[room] = r
	}
	return out
}

// TestDurableRollupSurvivesKillAcrossCompaction: the transition tallies
// have no field of their own on disk — recovery rebuilds them from the
// snapshot's events and the log's observations. Devices move, one is
// evicted and one swept (so the tallies hold history no tracked device
// accounts for), a compaction lands mid-run, the server is abandoned
// without Close; the reopened server's summary — what a rollup read
// carries — must equal the pre-crash one, and both their rollups must
// equal the event-log walk.
func TestDurableRollupSurvivesKillAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	s1, b := openDurable(t, dir, store.FsyncOff)
	trainServer(t, s1, b)
	seq := uint64(0)
	walk := func(from, to int) {
		for i := from; i < to; i++ {
			for d, dev := range []string{"p0", "p1", "p2", "p3"} {
				seq++
				// Two reports per beacon: the debounce of 2 commits each move.
				if _, err := s1.Ingest(sequenced(reportNear(b, dev, (d+i/2)%len(b.Beacons), float64(10*i+d)), seq)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	walk(0, 12)
	if _, ok := evict(t, s1, "p1"); !ok {
		t.Fatal("evict found no state for p1")
	}
	if err := s1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	walk(12, 20)
	if _, ok := evict(t, s1, "p2"); !ok {
		t.Fatal("evict found no state for p2")
	}
	walk(20, 24)
	if got := expire(t, s1, time.Duration(10*23+1)*time.Second); len(got) == 0 {
		t.Fatal("the sweep expired nothing")
	}
	want := s1.Summary()
	if public := RenderRollup(want); !reflect.DeepEqual(public, rollupFromViews(s1)) {
		t.Fatalf("one-pass rollup diverges from the event-log walk\n got: %+v\nwant: %+v", public, rollupFromViews(s1))
	}
	enters := 0
	for _, r := range want.Rooms {
		enters += r.Enters
	}
	if enters <= len(want.Devices) || want.Events < 40 {
		t.Fatalf("vacuous: %d enters for %d tracked devices over %d events", enters, len(want.Devices), want.Events)
	}

	// No Close: this is the crash.
	s2, _ := openDurable(t, dir, store.FsyncOff)
	defer s2.Close()
	got := s2.Summary()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered shard summary diverges\n got: %+v\nwant: %+v", got, want)
	}
	if !reflect.DeepEqual(RenderRollup(got), rollupFromViews(s2)) {
		t.Fatalf("recovered rollup diverges from the recovered event log")
	}
}

// TestRollupRouteRoundTrips: a rollup read on the gateway stream carries
// the summary exactly — what the gateway's shard client rebuilds from the
// reply is what the server read — its public fields are the one
// renderer's, and GET /api/v1/rollup answers those fields alone.
func TestRollupRouteRoundTrips(t *testing.T) {
	s, b := newTestServer(t)
	for i := 0; i < 9; i++ {
		for d, dev := range []string{"a", "b", "c"} {
			if _, err := s.Ingest(reportNear(b, dev, (d+i/3)%len(b.Beacons), float64(i)+0.1*float64(d))); err != nil {
				t.Fatal(err)
			}
		}
	}
	evict(t, s, "c") // history without state
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s answered %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	conn, br, resp := upgradeStream(t, ts)
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %s", resp.Status)
	}
	if _, err := conn.Write(wire.AppendStreamRequest(nil, wire.StreamRollup, 0, nil)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	status, body, err := wire.ReadStreamReply(br, &buf)
	if err != nil || status != wire.StreamOK {
		t.Fatalf("a rollup read got status %d, %v", status, err)
	}
	reply, err := ParseSummary(body)
	if err != nil {
		t.Fatal(err)
	}
	if sum := s.Summary(); !reflect.DeepEqual(reply, sum) {
		t.Fatalf("summary read from the reply diverges\n got: %+v\nwant: %+v", reply, sum)
	}
	public := RenderRollup(reply)
	if want, err := json.Marshal(public); err != nil || string(get("/api/v1/rollup")) != string(want)+"\n" {
		t.Fatalf("GET /api/v1/rollup answered %s, want the shard reply's rendering %s (%v)", get("/api/v1/rollup"), want, err)
	}
	if want := rollupFromViews(s); !reflect.DeepEqual(public, want) {
		t.Fatalf("public rollup fields\n got: %+v\nwant: %+v", public, want)
	}
	if public.Devices != 2 || public.Events <= public.Devices {
		t.Fatalf("vacuous: %d devices, %d events", public.Devices, public.Events)
	}
}

// TestOccupancyNeverTorn: an occupancy read beside live ingest must count
// every device in the room it lists it in. A snapshot assembled from
// separate head-count and device passes breaks that whenever a device
// moves between them; one summary pass reads each stripe's devices and
// counts under one lock.
func TestOccupancyNeverTorn(t *testing.T) {
	s, b := newTestServer(t) // debounce 1: a device moves on every report
	other := 0
	for i, bc := range b.Beacons {
		if bc.Room != b.Beacons[0].Room {
			other = i
			break
		}
	}
	const writers, devices, laps = 4, 8, 400
	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			batch := make([]transport.Report, devices)
			for lap := 0; lap < laps; lap++ {
				for d := range batch {
					beacon := 0
					if (lap+d)%2 == 1 {
						beacon = other
					}
					batch[d] = reportNear(b, fmt.Sprintf("w%d-%03d", w, d), beacon, float64(2*lap))
				}
				if _, err := s.IngestBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	polls, beside := 0, 0
	for live := true; live; polls++ {
		live = running.Load() > 0
		snap := s.Occupancy()
		listed := map[string]int{}
		for _, room := range snap.Devices {
			listed[room]++
		}
		if !reflect.DeepEqual(snap.Rooms, listed) {
			t.Fatalf("poll %d: torn occupancy: head counts %v, but the device list places %v", polls, snap.Rooms, listed)
		}
		if live {
			beside++
		}
	}
	wg.Wait()
	if snap := s.Occupancy(); beside < 10 || len(snap.Devices) != writers*devices || len(snap.Rooms) != 2 {
		t.Fatalf("vacuous: %d polls beside ingest, %d devices in %d rooms at the end", beside, len(snap.Devices), len(snap.Rooms))
	}
}

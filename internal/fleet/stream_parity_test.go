package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/obs"
	"occusim/internal/overload"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// legOutcome is everything the gateway derives from a shard delivery
// error: the status its face answers and the headers that steer the
// client.
type legOutcome struct {
	status                              int
	retryAfter, leaderEpoch, leaderHint string
}

func outcomeOf(err error) legOutcome {
	rec := httptest.NewRecorder()
	bms.WriteFailure(rec, err)
	return legOutcome{
		status:      rec.Code,
		retryAfter:  rec.Header().Get("Retry-After"),
		leaderEpoch: rec.Header().Get(transport.HeaderLeaderEpoch),
		leaderHint:  rec.Header().Get(transport.HeaderLeaderHint),
	}
}

// TestStreamOutcomesClassifyAsThePostDid drives one shard over the
// stream into each way a delivery can fail, and requires the gateway to
// draw from it the conclusions it drew from the JSON POST the leg made
// before the stream: status at its own face, Retry-After and the leader
// headers. The POST is gone, so the expected column is the table it
// produced, written out. A refused upgrade never had a POST twin; it is
// held to what a refused 415 gets (a fault: 502). Where a failure has an
// in-process twin — a rejection, a stale stamp, a shed — a LocalShard
// over the same server is driven into it too, and must draw the same
// conclusions.
func TestStreamOutcomesClassifyAsThePostDid(t *testing.T) {
	b := building.PaperHouse()
	st, err := store.New(200)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := bms.NewServer(b, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAdmission(overload.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 1500 * time.Millisecond})
	met := obs.New()
	srv.Instrument(met)
	var refuse bool
	var batchPosts atomic.Int64
	next := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if refuse && r.URL.Path == wire.StreamPath {
			http.NotFound(w, r)
			return
		}
		if r.URL.Path == transport.BatchPath {
			batchPosts.Add(1)
		}
		next.ServeHTTP(w, r)
	}))
	defer srv.Close()

	hs, err := NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocalShard("local", srv)
	if err != nil {
		t.Fatal(err)
	}
	both := []Shard{hs, local}
	report := func(device string) []transport.Report {
		rep := transport.Report{Device: device, AtSeconds: 2, Epoch: 1, Seq: 1}
		for _, bc := range b.Beacons {
			rep.Beacons = append(rep.Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: 3, RSSI: -63})
		}
		return []transport.Report{rep}
	}
	// frame renders reports as the gateway delivers them: one wire frame.
	frame := func(t *testing.T, reports []transport.Report) []byte {
		t.Helper()
		wb := new(wire.Batch)
		if err := transport.EncodeReports(wb, reports); err != nil {
			t.Fatal(err)
		}
		return wire.AppendFrame(nil, wb)
	}
	// tries is how often a delivery may succeed before it must fail: once,
	// except where the failure is a race the test can only make likely;
	// ready, when set, holds each try until the race stands to be lost.
	fails := func(t *testing.T, shards []Shard, reports []transport.Report, tries int, ready func(), want legOutcome) {
		t.Helper()
		f := frame(t, reports)
		for _, s := range shards {
			var err error
			for try := 0; try < tries && err == nil; try++ {
				if ready != nil {
					ready()
				}
				_, err = s.IngestFrame(f, len(reports))
			}
			if err == nil {
				t.Fatalf("%T: the delivery succeeded", s)
			}
			if got := outcomeOf(err); got != want {
				t.Errorf("%T: %+v, want %+v (%v)", s, got, want, err)
			}
		}
	}

	t.Run("rejected", func(t *testing.T) {
		fails(t, both, report(""), 1, nil, legOutcome{status: http.StatusBadRequest})
	})
	t.Run("stale", func(t *testing.T) {
		if _, _, err := srv.GrantLease(9, "http://gw-b"); err != nil {
			t.Fatal(err)
		}
		hs.StampEpoch(4)
		local.StampEpoch(4)
		fails(t, both, report("d1"), 1, nil, legOutcome{status: http.StatusConflict, leaderEpoch: "9", leaderHint: "http://gw-b"})
		hs.StampEpoch(9)
		local.StampEpoch(9)
	})
	t.Run("refused upgrade", func(t *testing.T) {
		refuse = true
		defer func() { refuse = false }()
		fresh, err := NewHTTPShard(ts.URL, nil, transport.RetryPolicy{}) // no stream upgraded earlier to fall back on
		if err != nil {
			t.Fatal(err)
		}
		if _, err = fresh.IngestFrame(frame(t, report("d2")), 1); err == nil {
			t.Fatal("the delivery succeeded")
		}
		if got, want := outcomeOf(err), (legOutcome{status: http.StatusBadGateway}); got != want {
			t.Errorf("%+v, want %+v (%v)", got, want, err)
		}
	})
	if occ := srv.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("failed deliveries left state behind: %v", occ.Devices)
	}
	// Vacuity: the same report, nothing in its way, lands — and never by
	// POST.
	if rooms, err := hs.IngestFrame(frame(t, report("ok")), 1); err != nil || len(rooms) != 1 {
		t.Fatalf("nothing in the way: %q, %v", rooms, err)
	}
	if batchPosts.Load() != 0 {
		t.Fatalf("the shard took %d batch POSTs: the leg has one form, a frame on the stream", batchPosts.Load())
	}
	t.Run("overload", func(t *testing.T) {
		// One admission slot, one queue place, and a crowd contending for
		// them from inside the process: each try waits until the crowd
		// holds the slot and the queue place, so a delivery is shed within
		// a few tries. The crowd stops however the subtest ends.
		stop := make(chan struct{})
		var crowd sync.WaitGroup
		defer func() {
			close(stop)
			crowd.Wait()
		}()
		for c := 0; c < 8; c++ {
			crowd.Add(1)
			go func(c int) {
				defer crowd.Done()
				reports := report(fmt.Sprintf("crowd-%d", c))
				for {
					select {
					case <-stop:
						return
					default:
						_, _ = srv.IngestBatch(reports)
					}
				}
			}(c)
		}
		full := func() {
			for deadline := time.Now().Add(10 * time.Second); ; {
				gauges := met.TakeSnapshot().Gauges
				if gauges["bms_gate_inflight"] >= 1 && gauges["bms_gate_queue_depth"] >= 1 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("the crowd never held the admission slot and the queue place")
				}
				runtime.Gosched()
			}
		}
		fails(t, both, report("d1"), 5000, full, legOutcome{status: http.StatusTooManyRequests, retryAfter: "2"})
	})
	t.Run("shard down", func(t *testing.T) {
		ts.Close()
		srv.Close() // the test server does not own upgraded connections; the shard hangs them up
		fails(t, []Shard{hs}, report("d3"), 1, nil, legOutcome{status: http.StatusBadGateway})
	})
}

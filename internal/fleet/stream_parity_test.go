package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/overload"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// legOutcome is everything the gateway derives from a shard delivery
// error: the status its face answers, whether the breaker counts it, and
// the headers that steer the client.
type legOutcome struct {
	status                              int
	breaker                             bool
	retryAfter, leaderEpoch, leaderHint string
}

func outcomeOf(err error) legOutcome {
	rec := httptest.NewRecorder()
	fleetIngestError(rec, err)
	return legOutcome{
		status: ingestStatus(err), breaker: breakerFailure(err),
		retryAfter:  rec.Header().Get("Retry-After"),
		leaderEpoch: rec.Header().Get(transport.HeaderLeaderEpoch),
		leaderHint:  rec.Header().Get(transport.HeaderLeaderHint),
	}
}

// TestStreamOutcomesClassifyAsThePostDid drives one shard through both
// of its doors — the JSON POST a CodecJSON client still makes, the stream
// every wire frame now takes — into each way a delivery can fail, and
// requires the gateway to draw the same conclusions from both: status at
// its own face, breaker verdict, Retry-After and the leader headers. A
// refused upgrade has no POST twin any more; it is held to what PR 15
// fixed for a 415 (a fault: 502, breaker failure).
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
	var refuse bool
	next := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if refuse && r.URL.Path == wire.StreamPath {
			http.NotFound(w, r)
			return
		}
		next.ServeHTTP(w, r)
	}))
	defer srv.Close()

	legs := map[string]*HTTPShard{}
	for name, codec := range map[string]transport.Codec{"post": transport.CodecJSON, "stream": transport.CodecBinary} {
		hs, err := NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		hs.SetCodec(codec)
		legs[name] = hs
	}
	report := func(device string) []transport.Report {
		rep := transport.Report{Device: device, AtSeconds: 2, Epoch: 1, Seq: 1}
		for _, bc := range b.Beacons {
			rep.Beacons = append(rep.Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: 3, RSSI: -63})
		}
		return []transport.Report{rep}
	}
	// tries is how often a delivery may succeed before it must fail: once,
	// except where the failure is a race the test can only make likely.
	both := func(t *testing.T, reports []transport.Report, tries int, want legOutcome) {
		t.Helper()
		for name, hs := range legs {
			var err error
			for try := 0; try < tries && err == nil; try++ {
				_, err = hs.IngestBatch(reports)
			}
			if err == nil {
				t.Fatalf("%s leg: the delivery succeeded", name)
			}
			if got := outcomeOf(err); got != want {
				t.Errorf("%s leg: %+v, want %+v (%v)", name, got, want, err)
			}
		}
	}

	t.Run("rejected", func(t *testing.T) {
		both(t, report(""), 1, legOutcome{status: http.StatusBadRequest})
	})
	t.Run("stale", func(t *testing.T) {
		if _, _, err := srv.GrantLease(9, "http://gw-b"); err != nil {
			t.Fatal(err)
		}
		for _, hs := range legs {
			hs.StampEpoch(4)
		}
		both(t, report("d1"), 1, legOutcome{status: http.StatusConflict, leaderEpoch: "9", leaderHint: "http://gw-b"})
		for _, hs := range legs {
			hs.StampEpoch(9)
		}
	})
	t.Run("refused upgrade", func(t *testing.T) {
		refuse = true
		defer func() { refuse = false }()
		fresh, err := NewHTTPShard(ts.URL, nil, transport.RetryPolicy{}) // no stream upgraded earlier to fall back on
		if err != nil {
			t.Fatal(err)
		}
		fresh.SetCodec(transport.CodecBinary)
		if _, err = fresh.IngestBatch(report("d2")); err == nil {
			t.Fatal("the delivery succeeded")
		}
		if got, want := outcomeOf(err), (legOutcome{status: http.StatusBadGateway, breaker: true}); got != want {
			t.Errorf("%+v, want %+v (%v)", got, want, err)
		}
	})
	if occ := srv.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("failed deliveries left state behind: %v", occ.Devices)
	}
	// Vacuity: the same report, nothing in its way, lands through both.
	for name, hs := range legs {
		if rooms, err := hs.IngestBatch(report("ok-" + name)); err != nil || len(rooms) != 1 {
			t.Fatalf("%s leg, nothing in the way: %q, %v", name, rooms, err)
		}
	}
	t.Run("overload", func(t *testing.T) {
		// One admission slot, one queue place, and a crowd contending for
		// them from inside the process: a delivery is shed within a few
		// tries.
		stop := make(chan struct{})
		var crowd sync.WaitGroup
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
		both(t, report("d1"), 5000, legOutcome{status: http.StatusTooManyRequests, retryAfter: "2"})
		close(stop)
		crowd.Wait()
	})
	t.Run("shard down", func(t *testing.T) {
		ts.Close()
		srv.Close() // the test server does not own upgraded connections; the shard hangs them up
		both(t, report("d3"), 1, legOutcome{status: http.StatusBadGateway, breaker: true})
	})
}

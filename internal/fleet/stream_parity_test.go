package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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
	bms.WriteFailure(rec, err)
	return legOutcome{
		status: rec.Code, breaker: breakerFailure(err),
		retryAfter:  rec.Header().Get("Retry-After"),
		leaderEpoch: rec.Header().Get(transport.HeaderLeaderEpoch),
		leaderHint:  rec.Header().Get(transport.HeaderLeaderHint),
	}
}

// TestStreamOutcomesClassifyAsThePostDid drives one shard over the
// stream into each way a delivery can fail, and requires the gateway to
// draw from it the conclusions it drew from the JSON POST the leg made
// until PR 19: status at its own face, breaker verdict, Retry-After and
// the leader headers. The POST is gone, so the expected column is the
// table it produced on PR 19's parent, written out. A refused upgrade
// never had a POST twin; it is held to what PR 15 fixed for a 415 (a
// fault: 502, breaker failure). SetCodec is called with both values on
// the way: it changes nothing.
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
	report := func(device string) []transport.Report {
		rep := transport.Report{Device: device, AtSeconds: 2, Epoch: 1, Seq: 1}
		for _, bc := range b.Beacons {
			rep.Beacons = append(rep.Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: 3, RSSI: -63})
		}
		return []transport.Report{rep}
	}
	// tries is how often a delivery may succeed before it must fail: once,
	// except where the failure is a race the test can only make likely.
	// The codec setter is flipped between tries and must not matter.
	fails := func(t *testing.T, reports []transport.Report, tries int, want legOutcome) {
		t.Helper()
		var err error
		for try := 0; try < tries && err == nil; try++ {
			hs.SetCodec(transport.Codec(try % 2))
			_, err = hs.IngestBatch(reports)
		}
		if err == nil {
			t.Fatal("the delivery succeeded")
		}
		if got := outcomeOf(err); got != want {
			t.Errorf("%+v, want %+v (%v)", got, want, err)
		}
	}

	t.Run("rejected", func(t *testing.T) {
		fails(t, report(""), 1, legOutcome{status: http.StatusBadRequest})
	})
	t.Run("stale", func(t *testing.T) {
		if _, _, err := srv.GrantLease(9, "http://gw-b"); err != nil {
			t.Fatal(err)
		}
		hs.StampEpoch(4)
		fails(t, report("d1"), 1, legOutcome{status: http.StatusConflict, leaderEpoch: "9", leaderHint: "http://gw-b"})
		hs.StampEpoch(9)
	})
	t.Run("refused upgrade", func(t *testing.T) {
		refuse = true
		defer func() { refuse = false }()
		fresh, err := NewHTTPShard(ts.URL, nil, transport.RetryPolicy{}) // no stream upgraded earlier to fall back on
		if err != nil {
			t.Fatal(err)
		}
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
	// Vacuity: the same report, nothing in its way, lands — under either
	// setting of the inert codec, and never by POST.
	for _, codec := range []transport.Codec{transport.CodecJSON, transport.CodecBinary} {
		hs.SetCodec(codec)
		if rooms, err := hs.IngestBatch(report("ok-" + codec.String())); err != nil || len(rooms) != 1 {
			t.Fatalf("nothing in the way, SetCodec(%s): %q, %v", codec, rooms, err)
		}
	}
	if batchPosts.Load() != 0 {
		t.Fatalf("the shard took %d batch POSTs: the leg has one form, a frame on the stream", batchPosts.Load())
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
		fails(t, report("d1"), 5000, legOutcome{status: http.StatusTooManyRequests, retryAfter: "2"})
		close(stop)
		crowd.Wait()
	})
	t.Run("shard down", func(t *testing.T) {
		ts.Close()
		srv.Close() // the test server does not own upgraded connections; the shard hangs them up
		fails(t, report("d3"), 1, legOutcome{status: http.StatusBadGateway, breaker: true})
	})
}

package fleet_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// wireStack is a fleet served over its real HTTP face: an in-process
// pool behind a gateway behind fleet.Handler, with the gateway's
// registry exposed so tests can assert which ingest path ran.
type wireStack struct {
	gw  *fleet.Gateway
	met *obs.Metrics
	ts  *httptest.Server
}

func newWireStack(t *testing.T, b *building.Building, shards int, snapSeed uint64) *wireStack {
	t.Helper()
	return newWireStackConfig(t, b, shards, snapSeed, fleet.Config{})
}

func newWireStackConfig(t *testing.T, b *building.Building, shards int, snapSeed uint64, cfg fleet.Config) *wireStack {
	t.Helper()
	pool, err := fleet.OpenLocalPool(b, shards, 2, 200, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	gw.Instrument(met)
	if err := gw.DistributeModel(trainSnapshot(t, b, snapSeed)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fleet.Handler(gw, fleet.HandlerOptions{}))
	t.Cleanup(ts.Close)
	return &wireStack{gw: gw, met: met, ts: ts}
}

func (s *wireStack) counter(name string) float64 {
	return s.met.TakeSnapshot().Counters[name]
}

// sendChunks drives a stamped stream through an uplink in fixed-size
// batches, as a device's batching uplink would.
func sendChunks(t *testing.T, up transport.BatchSender, stream []transport.Report, chunk int) {
	t.Helper()
	for i := 0; i < len(stream); i += chunk {
		j := min(i+chunk, len(stream))
		if err := up.SendBatch(stream[i:j]); err != nil {
			t.Fatalf("SendBatch[%d:%d]: %v", i, j, err)
		}
	}
}

// TestFleetWireHTTPByteIdentity drives the same stamped stream into a
// fleet over its real HTTP face in JSON, binary (device pre-split) and
// mixed modes, and requires the federated occupancy, events and dwell
// to be byte-identical to a clean single server in every mode — the
// codec must be invisible in the state it produces.
func TestFleetWireHTTPByteIdentity(t *testing.T) {
	b := building.PaperHouse()
	const chunk = 48

	modes := []struct {
		name   string
		uplink func(s *wireStack) transport.BatchSender
		verify func(t *testing.T, s *wireStack)
	}{
		{
			name: "json",
			uplink: func(s *wireStack) transport.BatchSender {
				return &transport.HTTPUplink{BaseURL: s.ts.URL, Retry: transport.DefaultRetry()}
			},
			verify: func(t *testing.T, s *wireStack) {},
		},
		{
			name: "binary-presplit",
			uplink: func(s *wireStack) transport.BatchSender {
				return &transport.HTTPUplink{BaseURL: s.ts.URL, Retry: transport.DefaultRetry(), Codec: transport.CodecBinary}
			},
			verify: func(t *testing.T, s *wireStack) {
				if fwd := s.counter("fleet_presplit_forwarded_total"); fwd == 0 {
					t.Fatal("no pre-split batch was forwarded — the fast path never ran")
				}
				if miss := s.counter("fleet_presplit_digest_miss_total"); miss != 0 {
					t.Fatalf("%v digest misses with a stable ring", miss)
				}
			},
		},
	}

	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			single := newServer(t, b)
			if _, err := single.InstallModel(trainSnapshot(t, b, 42)); err != nil {
				t.Fatal(err)
			}
			s := newWireStack(t, b, 4, 42)

			stream := synthStream(b, 16, 60, 9)
			stampStream(stream, 1)
			for i := 0; i < len(stream); i += chunk {
				j := min(i+chunk, len(stream))
				if _, err := single.IngestBatch(stream[i:j]); err != nil {
					t.Fatal(err)
				}
			}
			sendChunks(t, mode.uplink(s), stream, chunk)
			mode.verify(t, s)

			occ, events, dwell := fleetViews(t, s.gw)
			if want := mustJSON(t, single.Occupancy()); !bytes.Equal(occ, want) {
				t.Fatalf("occupancy over %s differs:\n%s\nvs single:\n%s", mode.name, occ, want)
			}
			if want := mustJSON(t, single.Events()); !bytes.Equal(events, want) {
				t.Fatalf("events over %s differ:\n%s\nvs single:\n%s", mode.name, events, want)
			}
			if want := mustJSON(t, single.DwellTotals()); !bytes.Equal(dwell, want) {
				t.Fatalf("dwell over %s differs:\n%s\nvs single:\n%s", mode.name, dwell, want)
			}
		})
	}
}

// TestFleetWireMixedModeByteIdentity interleaves JSON uplinks,
// pre-splitting binary uplinks and plain frames against
// ONE fleet — a crowd part legacy, part upgraded, part upgraded but
// ringless — and requires the merged state to match a single server fed
// everything once. Batches from the three populations enter through
// different doors but the same split, dedup and debounce.
func TestFleetWireMixedModeByteIdentity(t *testing.T) {
	b := building.PaperHouse()
	single := newServer(t, b)
	if _, err := single.InstallModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}
	s := newWireStack(t, b, 4, 42)
	var plainFrames atomic.Int64
	face := fleet.Handler(s.gw, fleet.HandlerOptions{})
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == wire.ContentType && r.Header.Get(wire.HeaderRingDigest) == "" {
			plainFrames.Add(1)
		}
		face.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counted)
	defer ts.Close()
	jsonUp := &transport.HTTPUplink{BaseURL: ts.URL, Retry: transport.DefaultRetry()}
	binUp := &transport.HTTPUplink{BaseURL: ts.URL, Retry: transport.DefaultRetry(), Codec: transport.CodecBinary}

	stream := synthStream(b, 16, 60, 9)
	stampStream(stream, 1)
	const chunk = 48
	for n, i := 0, 0; i < len(stream); n, i = n+1, i+chunk {
		j := min(i+chunk, len(stream))
		if _, err := single.IngestBatch(stream[i:j]); err != nil {
			t.Fatal(err)
		}
		if n%3 == 2 { // a device that knows no ring: one plain frame
			if rec := postWire(t, counted, plainFrame(t, stream[i:j]), ""); rec.Code != http.StatusOK {
				t.Fatalf("plain frame answered %d: %s", rec.Code, rec.Body)
			}
		} else if err := []transport.BatchSender{jsonUp, binUp}[n%3].SendBatch(stream[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if fwd := s.counter("fleet_presplit_forwarded_total"); fwd == 0 {
		t.Fatal("mixed mode never exercised the pre-split forward path")
	}
	if plainFrames.Load() == 0 {
		t.Fatal("mixed mode never exercised the plain-frame door")
	}

	occ, events, dwell := fleetViews(t, s.gw)
	if want := mustJSON(t, single.Occupancy()); !bytes.Equal(occ, want) {
		t.Fatalf("mixed-mode occupancy differs:\n%s\nvs single:\n%s", occ, want)
	}
	if want := mustJSON(t, single.Events()); !bytes.Equal(events, want) {
		t.Fatalf("mixed-mode events differ:\n%s\nvs single:\n%s", events, want)
	}
	if want := mustJSON(t, single.DwellTotals()); !bytes.Equal(dwell, want) {
		t.Fatalf("mixed-mode dwell differs:\n%s\nvs single:\n%s", dwell, want)
	}
}

// TestFleetPresplitStaleRingFallback is the ring-staleness drill: a
// device pre-splits against a ring view fetched BEFORE the gateway
// marked a shard down. The gateway must detect the digest mismatch,
// re-split the sections server-side against its live table (counted,
// not erred), and a full retransmission of the same batch must be
// absorbed by (Epoch, Seq) dedup — ending byte-identical to a single
// server fed the stream exactly once.
func TestFleetPresplitStaleRingFallback(t *testing.T) {
	b := building.PaperHouse()
	single := newServer(t, b)
	if _, err := single.InstallModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}
	s := newWireStack(t, b, 4, 42)
	// The ring answer is frozen at the first one served: however often the
	// uplink refreshes, it keeps pre-splitting against that ring.
	face := fleet.Handler(s.gw, fleet.HandlerOptions{})
	var freeze sync.Once
	var first []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/ring" {
			face.ServeHTTP(w, r)
			return
		}
		freeze.Do(func() {
			rec := httptest.NewRecorder()
			face.ServeHTTP(rec, r)
			first = rec.Body.Bytes()
		})
		w.Write(first)
	}))
	defer ts.Close()
	up := &transport.HTTPUplink{BaseURL: ts.URL, Retry: transport.DefaultRetry(), Codec: transport.CodecBinary}

	stream := synthStream(b, 16, 60, 9)
	stampStream(stream, 1)
	half := len(stream) / 2
	const chunk = 48

	for i := 0; i < half; i += chunk {
		j := min(i+chunk, half)
		if _, err := single.IngestBatch(stream[i:j]); err != nil {
			t.Fatal(err)
		}
		if err := up.SendBatch(stream[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if fwd := s.counter("fleet_presplit_forwarded_total"); fwd == 0 {
		t.Fatal("setup: the fresh-ring phase never forwarded a pre-split batch")
	}

	// Routing changes under the device: a shard goes down, devices
	// migrate, the digest moves. The uplink's view is now stale for the
	// rest of the run.
	s.gw.MarkDown(2)

	for i := half; i < len(stream); i += chunk {
		j := min(i+chunk, len(stream))
		if _, err := single.IngestBatch(stream[i:j]); err != nil {
			t.Fatal(err)
		}
		if err := up.SendBatch(stream[i:j]); err != nil {
			t.Fatalf("stale pre-split upload must succeed via server-side re-split: %v", err)
		}
		// The lost-ACK case: the device retransmits the whole batch.
		// Dedup must absorb every report of the duplicate.
		if err := up.SendBatch(stream[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if miss := s.counter("fleet_presplit_digest_miss_total"); miss == 0 {
		t.Fatal("no digest miss was counted — the stale pre-splits were never detected")
	}

	// Restore the shard before reading: a down shard's committed events
	// are excluded from the federated view until it rejoins.
	s.gw.MarkUp(2)
	occ, events, dwell := fleetViews(t, s.gw)
	if want := mustJSON(t, single.Occupancy()); !bytes.Equal(occ, want) {
		t.Fatalf("occupancy after stale pre-splits differs:\n%s\nvs single:\n%s", occ, want)
	}
	if want := mustJSON(t, single.Events()); !bytes.Equal(events, want) {
		t.Fatalf("events after stale pre-splits differ:\n%s\nvs single:\n%s", events, want)
	}
	if want := mustJSON(t, single.DwellTotals()); !bytes.Equal(dwell, want) {
		t.Fatalf("dwell after stale pre-splits differs:\n%s\nvs single:\n%s", dwell, want)
	}
}

// TestSkewPresplitFallbackIsCounted: skew correction and the verbatim
// forward do not compose — the gateway must see every timestamp before
// routing. By rule, not by fallback: such a gateway publishes its ring
// without a digest, so a device uplink sends plain frames and pays for no
// split. The refusal stays as the check: a device that pre-splits anyway is
// re-split server-side and counted — not as a digest miss — and the
// telemetry says once, up front, that the forward is off. The state is what
// one clean server holds either way.
func TestSkewPresplitFallbackIsCounted(t *testing.T) {
	b := building.PaperHouse()
	single := newServer(t, b)
	if _, err := single.InstallModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}
	s := newWireStackConfig(t, b, 3, 42, fleet.Config{SkewWindow: time.Hour})
	stream := synthStream(b, 12, 30, 9)
	stampStream(stream, 1)
	if _, err := single.IngestBatch(stream); err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2 / 48 * 48

	// The uplink: plain frames, nothing refused.
	client := obs.New()
	transport.Instrument(client)
	sendChunks(t, &transport.HTTPUplink{BaseURL: s.ts.URL, Retry: transport.DefaultRetry(), Codec: transport.CodecBinary}, stream[:half], 48)
	sent := client.TakeSnapshot().Counters
	if plain, cut := sent[`transport_wire_batches_total{codec="binary"}`], sent[`transport_wire_batches_total{codec="presplit"}`]; plain != float64(half/48) || cut != 0 {
		t.Errorf("the uplink sent %v plain frames and %v pre-split uploads, want %d and 0", plain, cut, half/48)
	}
	if got := s.counter("fleet_presplit_skew_fallback_total"); got != 0 {
		t.Errorf("fleet_presplit_skew_fallback_total = %v after plain frames only", got)
	}

	// A device that cuts sections anyway, under the gateway's real digest.
	body, _ := presplitBody(t, s.gw, stream[half:])
	if rec := postWire(t, fleet.Handler(s.gw, fleet.HandlerOptions{}), body, s.gw.RingDigest()); rec.Code != http.StatusOK {
		t.Fatalf("a pre-split upload under a skew window answered %d: %s", rec.Code, rec.Body)
	}
	if got := s.counter("fleet_presplit_skew_fallback_total"); got != 1 {
		t.Errorf("fleet_presplit_skew_fallback_total = %v after one pre-split upload under a skew window", got)
	}
	if miss, fwd := s.counter("fleet_presplit_digest_miss_total"), s.counter("fleet_presplit_forwarded_total"); miss != 0 || fwd != 0 {
		t.Errorf("digest misses %v, forwards %v: the skew fallback is neither", miss, fwd)
	}
	announced := 0
	for _, e := range s.met.TakeSnapshot().Events {
		if e.Kind == obs.EventPresplitOff {
			announced++
		}
	}
	if announced != 1 {
		t.Errorf("%d %s events recorded, want the one from wiring", announced, obs.EventPresplitOff)
	}
	occ, events, dwell := fleetViews(t, s.gw)
	if !bytes.Equal(occ, mustJSON(t, single.Occupancy())) || !bytes.Equal(events, mustJSON(t, single.Events())) ||
		!bytes.Equal(dwell, mustJSON(t, single.DwellTotals())) {
		t.Fatal("the skew-window fleet's state differs from one clean server's")
	}
}

package fleet_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/overload"
	"occusim/internal/scenario"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// slowShard wraps a Shard, parking every ingest on a gate channel so
// tests can hold the gateway's admission slots occupied.
type slowShard struct {
	fleet.Shard
	gate   chan struct{} // each ingest receives once before proceeding
	parked atomic.Int64  // ingests that have reached the gate
}

func (s *slowShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	s.parked.Add(1)
	<-s.gate
	return s.Shard.IngestFrame(frame, reports)
}

// faultyShard wraps a Shard, failing ingest while broken.
type faultyShard struct {
	fleet.Shard
	mu     sync.Mutex
	broken bool
	calls  int
}

func (s *faultyShard) setBroken(b bool) {
	s.mu.Lock()
	s.broken = b
	s.mu.Unlock()
}

func (s *faultyShard) ingestCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *faultyShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	s.mu.Lock()
	s.calls++
	broken := s.broken
	s.mu.Unlock()
	if broken {
		return nil, &url.Error{Op: "stream", URL: s.Name(), Err: errors.New("simulated shard timeout")}
	}
	return s.Shard.IngestFrame(frame, reports)
}

// TestGatewayAdmissionSheds429 pins the gateway-level shed contract:
// with the admission gate full, IngestBatch fails with a typed overload
// error in-process and the HTTP face answers 429 + Retry-After; once
// the gate drains, the identical sequenced batch lands exactly once.
func TestGatewayAdmissionSheds429(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 1, 2, 100, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowShard{Shard: pool.Shards[0], gate: make(chan struct{})}
	gw, err := fleet.New([]fleet.Shard{slow}, fleet.Config{
		Admission: overload.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}

	stream := synthStream(b, 1, 6, 7)
	seq := transport.NewSequencer(1)
	for i := range stream {
		seq.Stamp(&stream[i])
	}

	// Fill the inflight slot and the queue slot with parked ingests.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gw.IngestBatch(stream); err != nil {
				t.Errorf("parked ingest failed: %v", err)
			}
		}()
	}
	waitAdmission(t, gw, 1)
	if slow.parked.Load() == 0 {
		t.Fatal("vacuous: no ingest is parked inside the shard — the gateway delivers past the double")
	}

	// Third entry sheds, typed.
	if _, err := gw.IngestBatch(stream); err == nil {
		t.Fatal("full gate should shed")
	} else if after, ok := overload.IsOverload(err); !ok || after != 2*time.Second {
		t.Fatalf("shed err = %v, want typed 2s overload", err)
	}

	// HTTP face: 429 with the Retry-After hint.
	ts := httptest.NewServer(fleet.Handler(gw, fleet.HandlerOptions{}))
	defer ts.Close()
	body := mustJSON(t, stream)
	resp, err := http.Post(ts.URL+"/api/v1/observations:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	// Drain: the two parked ingests complete (the second is a retransmit
	// of the same sequenced batch — deduped server-side), and the shed
	// batch retransmits cleanly. Exactly-once: one device, one report.
	close(slow.gate)
	wg.Wait()
	if _, err := gw.IngestBatch(stream); err != nil {
		t.Fatalf("retransmit after shed: %v", err)
	}
	snap, err := gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Devices) != 1 {
		t.Fatalf("devices = %d, want 1", len(snap.Devices))
	}
	if _, shed := gw.AdmissionStats(); shed < 2 {
		t.Fatalf("shed count = %d, want ≥ 2", shed)
	}
}

// TestGatewayFailingShardAndRecovery: the gateway has one dispatch path.
// Consecutive uploads to a failing shard each reach it — nothing fails
// fast — and each fails with the shard's own class, which the HTTP face
// answers (502 for an unreachable shard). Once the shard recovers, the
// same stamped batch lands with no accepted report lost.
func TestGatewayFailingShardAndRecovery(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 1, 2, 100, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	faulty := &faultyShard{Shard: pool.Shards[0]}
	gw, err := fleet.New([]fleet.Shard{faulty}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}

	stream := synthStream(b, 2, 6, 9)
	seq := transport.NewSequencer(1)
	for i := range stream {
		seq.Stamp(&stream[i])
	}

	faulty.setBroken(true)
	for i := 1; i <= 3; i++ {
		_, err := gw.IngestBatch(stream)
		if err == nil {
			t.Fatalf("broken shard ingest %d should fail", i)
		}
		if v := transport.Classify(err); v.Class != transport.Unreachable {
			t.Fatalf("ingest %d: %v classified %+v, want the shard's own unreachable", i, err, v)
		}
		if calls := faulty.ingestCalls(); calls != i {
			t.Fatalf("ingest %d: the shard was asked %d times, want %d — a delivery failed without reaching it", i, calls, i)
		}
	}
	ts := httptest.NewServer(fleet.Handler(gw, fleet.HandlerOptions{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/api/v1/observations:batch", "application/json", bytes.NewReader(mustJSON(t, stream)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("failing shard answered %d at the face, want 502", resp.StatusCode)
	}
	if calls := faulty.ingestCalls(); calls != 4 {
		t.Fatalf("the face's upload reached the shard %d times in all, want 4", calls)
	}

	faulty.setBroken(false)
	if _, err := gw.IngestBatch(stream); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	snap, err := gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Devices) != 2 {
		t.Fatalf("devices after recovery = %d, want 2 (no accepted reports lost)", len(snap.Devices))
	}
}

// TestGatewaySkewMatchesReferenceServer: a fleet with SkewWindow fed a
// crowd containing a device 2h in the future ends byte-identical to a
// single server fed the same crowd with that device's clock corrected —
// the per-device offset makes the hostile stream equivalent to the
// honest one.
func TestGatewaySkewMatchesReferenceServer(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 42)

	pool, err := fleet.OpenLocalPool(b, 2, 2, 200, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{SkewWindow: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}
	single := newServer(t, b)
	if _, err := single.InstallModel(snap); err != nil {
		t.Fatal(err)
	}

	const skew = 7200.0 // "skew-1" reports 2h ahead
	honest := synthStream(b, 4, 40, 11)
	hostile := make([]transport.Report, len(honest))
	copy(hostile, honest)
	for i := range hostile {
		if hostile[i].Device == "crowd-001" {
			hostile[i].AtSeconds += skew
		}
	}
	// The honest stream must lead with a non-skewed device so the
	// building clock anchors at 0 (synthStream interleaves time-major,
	// device-minor: crowd-000 at t=0 comes first).
	if honest[0].Device != "crowd-000" {
		t.Fatalf("stream leads with %s; test assumes crowd-000 anchors", honest[0].Device)
	}

	for _, r := range hostile {
		if _, err := gw.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range honest {
		if _, err := single.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}

	gwSnap, err := gw.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(mustJSON(t, gwSnap)), string(mustJSON(t, single.Occupancy())); got != want {
		t.Fatalf("occupancy diverged:\nfleet:  %s\nsingle: %s", got, want)
	}
	gwEvents, err := gw.Events()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(mustJSON(t, gwEvents)), string(mustJSON(t, single.Events())); got != want {
		t.Fatalf("events diverged:\nfleet:  %s\nsingle: %s", got, want)
	}
	gwDwell, err := gw.DwellTotals()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(mustJSON(t, gwDwell)), string(mustJSON(t, single.DwellTotals())); got != want {
		t.Fatalf("dwell diverged:\nfleet:  %s\nsingle: %s", got, want)
	}
	if gw.SkewAdjusted() == 0 {
		t.Fatal("no reports were skew-corrected — the scenario is vacuous")
	}
}

// TestPresplitSectionsAreChecked: a fresh digest says the device split
// against the gateway's routing table, not that it split honestly. A
// section is forwarded only where the gateway's own ring puts every
// device in it; an upload that names the wrong owner, names one shard
// twice, or files one device under two sections is refused to the
// server-side split — counted as a misroute, not as a digest miss — and
// lands where it belongs: honest and hostile uploads of one stream,
// interleaved, leave the fleet exactly as one clean server, and no shard
// with a device it does not own. (Until PR 19 the sections went wherever
// the device said.)
func TestPresplitSectionsAreChecked(t *testing.T) {
	const seed = 42
	b := building.PaperHouse()
	stream := synthStream(b, 12, 20, 9)
	stampStream(stream, 1)
	ref, err := scenario.Reference(b, [][]transport.Report{stream}, seed)
	if err != nil {
		t.Fatal(err)
	}

	hostile := map[string]func(t *testing.T, gw *fleet.Gateway, secs []section) []section{
		// Every section under the next section's shard (or, alone, under
		// any shard but its own).
		"wrong owner": func(t *testing.T, gw *fleet.Gateway, secs []section) []section {
			names := gw.RingInfo().Shards
			out := slices.Clone(secs)
			for k := range out {
				out[k].shard = secs[(k+1)%len(secs)].shard
				if len(secs) == 1 {
					out[k].shard = names[(slices.Index(names, secs[k].shard)+1)%len(names)]
				}
			}
			return out
		},
		// The first section's reports under two sections of its shard, one
		// report in the second.
		"duplicate shard": func(t *testing.T, gw *fleet.Gateway, secs []section) []section {
			first, n := secs[0], len(secs[0].reports)
			if n < 2 {
				t.Fatalf("the first section has %d report(s); the test needs two to part", n)
			}
			return append([]section{{first.shard, first.reports[:n-1]}, {first.shard, first.reports[n-1:]}}, secs[1:]...)
		},
		// The first section's last report filed, beside its own reports,
		// under the second section: every device's FIRST section is its
		// owner's, so only the two-sections check can see it.
		"split device": func(t *testing.T, gw *fleet.Gateway, secs []section) []section {
			if len(secs) < 2 {
				t.Fatalf("the upload has %d section(s); the test needs two", len(secs))
			}
			first, n := secs[0], len(secs[0].reports)
			if n < 2 {
				t.Fatalf("the first section has %d report(s); the test needs two to part", n)
			}
			out := slices.Clone(secs)
			out[0] = section{first.shard, first.reports[:n-1]}
			out[1] = section{secs[1].shard, append(slices.Clone(secs[1].reports), first.reports[n-1])}
			return out
		},
	}
	for name, forge := range hostile {
		t.Run(name, func(t *testing.T) {
			met := obs.New()
			f, err := scenario.Build(b, scenario.Spec{Shards: 4, Metrics: met}, seed)
			if err != nil {
				t.Fatal(err)
			}
			pool, gw := f.Pool, f.Gateways[0]
			face := fleet.Handler(gw, fleet.HandlerOptions{})

			// Two reports per device an upload, so a device's reports
			// alternate between honest and forged uploads.
			const chunk = 24
			honest, forged := 0.0, 0.0
			for n, i := 0, 0; i < len(stream); n, i = n+1, i+chunk {
				batch := stream[i : i+chunk]
				secs := ringSections(t, gw, batch)
				if n%2 == 1 {
					secs = forge(t, gw, secs)
					forged++
				} else {
					honest++
				}
				body, order := sectionsBody(t, batch, secs)
				rooms := ackRooms(t, postWire(t, face, body, gw.RingDigest()), len(batch))
				if len(order) != len(batch) || len(rooms) != len(batch) {
					t.Fatalf("upload %d: %d rooms for %d reports in %d positions", n, len(rooms), len(batch), len(order))
				}
			}
			counters := met.TakeSnapshot().Counters
			if got := counters["fleet_presplit_misroute_total"]; got != forged {
				t.Errorf("fleet_presplit_misroute_total = %v after %v forged uploads", got, forged)
			}
			if miss, fwd := counters["fleet_presplit_digest_miss_total"], counters["fleet_presplit_forwarded_total"]; miss != 0 || fwd != honest {
				t.Errorf("%v digest misses (the digest was fresh), %v forwards of %v honest uploads", miss, fwd, honest)
			}
			for i, srv := range pool.Servers {
				for _, dev := range srv.KnownDevices() {
					if owner, err := gw.ShardFor(dev); err != nil || owner != i {
						t.Errorf("shard %d holds state for %s, which shard %d owns (%v)", i, dev, owner, err)
					}
				}
			}
			if err := scenario.VerifyExact(gw, ref); err != nil {
				t.Errorf("the fleet differs from one clean server: %v", err)
			}
		})
	}
}

func waitAdmission(t *testing.T, gw *fleet.Gateway, wantAdmitted uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if admitted, _ := gw.AdmissionStats(); admitted >= wantAdmitted {
			// Admitted calls are parked inside the shard; give the queued
			// one a moment to register too.
			time.Sleep(10 * time.Millisecond)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("admission never reached the gate")
}

package bms

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"occusim/internal/overload"
	"occusim/internal/transport"
)

// TestIngestShedsWhenGateFull pins the overload contract on both faces:
// a full admission gate sheds Ingest with an overload error in-process,
// and the HTTP handler maps it to 429 + Retry-After. Once the gate
// drains, the identical sequenced report is accepted — shedding never
// consumes a sequence number.
func TestIngestShedsWhenGateFull(t *testing.T) {
	s, b := newTestServer(t)
	s.SetAdmission(overload.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 3 * time.Second})

	// Occupy the single inflight slot and the single queue slot from the
	// outside, so the next ingest finds the gate full.
	relInflight, err := s.gate.Acquire()
	if err != nil {
		t.Fatalf("fill inflight: %v", err)
	}
	queued := make(chan struct{})
	go func() {
		rel, err := s.gate.Acquire()
		if err == nil {
			rel()
		}
		close(queued)
	}()
	waitForQueued(t, s.gate)

	rep := reportNear(b, "phone", 0, 1)
	rep.Epoch, rep.Seq = 1, 1

	// In-process face: overload error, typed.
	if _, err := s.Ingest(rep); err == nil {
		t.Fatal("full gate should shed Ingest")
	} else if after, ok := overload.IsOverload(err); !ok || after != 3*time.Second {
		t.Fatalf("Ingest shed err = %v (IsOverload=%v, after=%v), want typed 3s overload", err, ok, after)
	}

	// HTTP face: 429 + Retry-After, both single and batch endpoints.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(rep)
	resp, err := http.Post(ts.URL+"/api/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	batchBody, _ := json.Marshal([]transport.Report{rep})
	resp, err = http.Post(ts.URL+"/api/v1/observations:batch", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch shed status = %d, want 429", resp.StatusCode)
	}

	// Drain the gate: the same (Epoch, Seq) is still fresh — sheds never
	// reached the store, so the retransmit ingests as the first delivery.
	relInflight()
	<-queued
	if _, err := s.Ingest(rep); err != nil {
		t.Fatalf("retransmit after shed: %v", err)
	}
	if occ := s.Occupancy(); len(occ.Devices) != 1 {
		t.Fatalf("tracked devices after retransmit = %d, want 1", len(occ.Devices))
	}
	if _, shed := s.gate.Stats(); shed < 3 {
		t.Fatalf("shed count = %d, want ≥ 3 (Ingest + two HTTP)", shed)
	}
}

// TestNoGateAdmitsEverything: the default server (no SetAdmission) and
// a cleared gate behave exactly as before the gate existed.
func TestNoGateAdmitsEverything(t *testing.T) {
	s, b := newTestServer(t)
	if _, err := s.Ingest(reportNear(b, "p", 0, 1)); err != nil {
		t.Fatalf("ungated ingest: %v", err)
	}
	s.SetAdmission(overload.Config{MaxInflight: 2})
	s.SetAdmission(overload.Config{}) // zero config removes the gate
	if s.gate != nil {
		t.Fatal("zero config should clear the gate")
	}
	if _, err := s.Ingest(reportNear(b, "p", 0, 2)); err != nil {
		t.Fatalf("ingest after clearing gate: %v", err)
	}
}

func waitForQueued(t *testing.T, g *overload.Gate) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, queued := g.Load(); queued == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("queue never filled")
}

package transport

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"occusim/internal/rng"
)

func testReport() Report {
	return Report{
		Device:    "phone-1",
		AtSeconds: 12.5,
		Beacons: []BeaconReport{
			{ID: "C0FFEE00-BEEF-4A11-8000-000000000001/1/1", Distance: 2.1, RSSI: -64},
		},
	}
}

func TestHTTPUplinkPostsJSON(t *testing.T) {
	var got Report
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/observations" {
			t.Errorf("path = %s", r.URL.Path)
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type = %s", ct)
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Error(err)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	u := &HTTPUplink{BaseURL: srv.URL}
	if u.Name() != "wifi-http" {
		t.Errorf("name = %s", u.Name())
	}
	if err := u.Send(testReport()); err != nil {
		t.Fatal(err)
	}
	if got.Device != "phone-1" || len(got.Beacons) != 1 || got.Beacons[0].Distance != 2.1 {
		t.Fatalf("server received %+v", got)
	}
}

func TestHTTPUplinkErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	u := &HTTPUplink{BaseURL: srv.URL}
	if err := u.Send(testReport()); err == nil {
		t.Fatal("5xx should error")
	}
	down := &HTTPUplink{BaseURL: "http://127.0.0.1:1"}
	if err := down.Send(testReport()); err == nil {
		t.Fatal("unreachable server should error")
	}
}

func TestSendFunc(t *testing.T) {
	calls := 0
	u := SendFunc{F: func(Report) error { calls++; return nil }, Label: "direct"}
	if u.Name() != "direct" {
		t.Errorf("name = %s", u.Name())
	}
	if err := u.Send(testReport()); err != nil || calls != 1 {
		t.Fatalf("send: err=%v calls=%d", err, calls)
	}
}

func TestBTRelayValidation(t *testing.T) {
	ok := SendFunc{F: func(Report) error { return nil }, Label: "x"}
	if _, err := NewBTRelay(nil, 0.1, rng.New(1)); err == nil {
		t.Error("nil uplink should fail")
	}
	if _, err := NewBTRelay(ok, -0.1, rng.New(1)); err == nil {
		t.Error("negative prob should fail")
	}
	if _, err := NewBTRelay(ok, 1.1, rng.New(1)); err == nil {
		t.Error("prob > 1 should fail")
	}
	if _, err := NewBTRelay(ok, 0.1, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestBTRelayDropsAtConfiguredRate(t *testing.T) {
	delivered := 0
	next := SendFunc{F: func(Report) error { delivered++; return nil }, Label: "x"}
	relay, err := NewBTRelay(next, 0.3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if relay.Name() != "bluetooth-relay" {
		t.Errorf("name = %s", relay.Name())
	}
	failures := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if err := relay.Send(testReport()); err != nil {
			failures++
		}
	}
	rate := float64(failures) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("drop rate = %v, want ≈0.3", rate)
	}
	if delivered != n-failures {
		t.Fatalf("delivered = %d", delivered)
	}
}

func TestQueueValidation(t *testing.T) {
	ok := SendFunc{F: func(Report) error { return nil }, Label: "x"}
	if _, err := NewQueue(nil, 1, 1); err == nil {
		t.Error("nil uplink should fail")
	}
	if _, err := NewQueue(ok, 0, 1); err == nil {
		t.Error("zero len should fail")
	}
	if _, err := NewQueue(ok, 1, 0); err == nil {
		t.Error("zero attempts should fail")
	}
}

func TestQueueFlushDeliversInOrder(t *testing.T) {
	var devices []string
	next := SendFunc{F: func(r Report) error { devices = append(devices, r.Device); return nil }, Label: "x"}
	q, _ := NewQueue(next, 10, 3)
	for _, d := range []string{"a", "b", "c"} {
		r := testReport()
		r.Device = d
		q.Enqueue(r)
	}
	if n := q.Flush(); n != 3 {
		t.Fatalf("delivered = %d", n)
	}
	if len(devices) != 3 || devices[0] != "a" || devices[2] != "c" {
		t.Fatalf("order = %v", devices)
	}
	if len(q.pending) != 0 {
		t.Fatalf("pending = %d", len(q.pending))
	}
}

func TestQueueRetriesFailuresUntilBudget(t *testing.T) {
	fails := 2
	attempts := 0
	next := SendFunc{F: func(Report) error {
		attempts++
		if attempts <= fails {
			return errors.New("transient")
		}
		return nil
	}, Label: "x"}
	q, _ := NewQueue(next, 10, 5)
	q.Enqueue(testReport())
	if n := q.Flush(); n != 0 {
		t.Fatalf("first flush delivered %d", n)
	}
	if len(q.pending) != 1 {
		t.Fatal("report should remain queued")
	}
	q.Flush() // second failure
	if n := q.Flush(); n != 1 {
		t.Fatalf("third flush delivered %d", n)
	}
	if len(q.pending) != 0 || attempts != 3 {
		t.Fatalf("pending = %d after %d attempts, want 0 after 3", len(q.pending), attempts)
	}
}

func TestQueueDropsAfterMaxAttempts(t *testing.T) {
	attempts := 0
	next := SendFunc{F: func(Report) error { attempts++; return errors.New("down") }, Label: "x"}
	q, _ := NewQueue(next, 10, 2)
	q.Enqueue(testReport())
	q.Flush()
	q.Flush()
	if len(q.pending) != 0 {
		t.Fatal("report should be dropped after budget")
	}
	q.Flush()
	if attempts != 2 {
		t.Fatalf("attempts = %d, want the budget's 2", attempts)
	}
}

func TestQueueEvictsOldestWhenFull(t *testing.T) {
	next := SendFunc{F: func(Report) error { return errors.New("down") }, Label: "x"}
	q, _ := NewQueue(next, 2, 5)
	r1, r2, r3 := testReport(), testReport(), testReport()
	r1.Device, r2.Device, r3.Device = "1", "2", "3"
	if q.Enqueue(r1) {
		t.Fatal("no eviction expected")
	}
	q.Enqueue(r2)
	if !q.Enqueue(r3) {
		t.Fatal("eviction expected")
	}
	if len(q.pending) != 2 {
		t.Fatalf("pending = %d", len(q.pending))
	}
}

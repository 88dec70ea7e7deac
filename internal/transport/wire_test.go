package transport

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"occusim/internal/ring"
	"occusim/internal/wire"
)

// wireReports builds n sequenced reports across a few devices.
func wireReports(n int) []Report {
	out := make([]Report, n)
	for i := range out {
		out[i] = Report{
			Device:    fmt.Sprintf("phone-%d", i%4),
			AtSeconds: float64(i),
			Epoch:     1,
			Seq:       uint64(i + 1),
			Beacons: []BeaconReport{
				{ID: fmt.Sprintf("C0FFEE00-BEEF-4A11-8000-%012d/1/%d", i%8, i%8), Distance: 1.5, RSSI: -60},
			},
		}
	}
	return out
}

// codecCounter tallies batch POSTs by declared content type.
type codecCounter struct {
	mu           sync.Mutex
	wirePosts    int
	jsonPosts    int
	lastDigest   string
	lastSections []string
}

func (c *codecCounter) snapshot() (wirePosts, jsonPosts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wirePosts, c.jsonPosts
}

// jsonOnlyServer answers 415 to wire frames — a pre-PR10 server.
func jsonOnlyServer(t *testing.T, c *codecCounter, ingested *[][]Report) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/ring" {
			http.NotFound(w, r)
			return
		}
		if r.Header.Get("Content-Type") == wire.ContentType {
			c.mu.Lock()
			c.wirePosts++
			c.mu.Unlock()
			http.Error(w, "unsupported media type", http.StatusUnsupportedMediaType)
			return
		}
		var batch []Report
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		c.jsonPosts++
		if ingested != nil {
			*ingested = append(*ingested, batch)
		}
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
}

func TestHTTPUplinkSticky415Downgrade(t *testing.T) {
	c := &codecCounter{}
	var got [][]Report
	srv := jsonOnlyServer(t, c, &got)
	defer srv.Close()

	// A retry policy with budget: the 415 must come back after exactly
	// one attempt anyway (non-429 4xx is permanent), not burn retries.
	u := &HTTPUplink{BaseURL: srv.URL, Retry: RetryPolicy{MaxAttempts: 5}, Codec: CodecBinary}
	reports := wireReports(6)
	for i := 0; i < 3; i++ {
		if err := u.SendBatch(reports); err != nil {
			t.Fatalf("SendBatch %d: %v", i, err)
		}
	}
	wirePosts, jsonPosts := c.snapshot()
	if wirePosts != 1 {
		t.Fatalf("server saw %d wire attempts, want exactly 1 (sticky downgrade, no retry burn)", wirePosts)
	}
	if jsonPosts != 3 {
		t.Fatalf("server saw %d JSON batches, want 3 (the downgraded resend plus two sticky sends)", jsonPosts)
	}
	if len(got) != 3 || len(got[0]) != len(reports) {
		t.Fatalf("ingested %d batches, first of %d reports; want 3 × %d", len(got), len(got[0]), len(reports))
	}
	if got[0][2].Device != reports[2].Device || got[0][2].Seq != reports[2].Seq {
		t.Fatalf("downgraded resend diverged: %+v vs %+v", got[0][2], reports[2])
	}
}

// reportsOf renders a decoded wire batch back into report form.
func reportsOf(b *wire.Batch) []Report {
	out := make([]Report, b.Len())
	for i := range out {
		out[i] = Report{Device: b.Devices[i], AtSeconds: b.At[i], Epoch: b.Epoch[i], Seq: b.Seq[i]}
		for _, bc := range b.ReportBeacons(i) {
			out[i].Beacons = append(out[i].Beacons, BeaconReport{ID: bc.ID.String(), Distance: bc.Distance, RSSI: bc.RSSI})
		}
	}
	return out
}

func TestHTTPUplinkBinaryAgainstWireServer(t *testing.T) {
	var decoded []Report
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
			t.Errorf("content type = %q, want the wire codec", ct)
		}
		body, _ := io.ReadAll(r.Body)
		b := wire.GetBatch()
		defer wire.PutBatch(b)
		if err := wire.DecodeFrame(body, b); err != nil {
			t.Errorf("DecodeFrame: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		decoded = reportsOf(b)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	u := &HTTPUplink{BaseURL: srv.URL, Codec: CodecBinary}
	reports := wireReports(5)
	if err := u.SendBatch(reports); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(reports) {
		t.Fatalf("server decoded %d reports, want %d", len(decoded), len(reports))
	}
	for i := range reports {
		if decoded[i].Device != reports[i].Device || decoded[i].Beacons[0].ID != reports[i].Beacons[0].ID {
			t.Fatalf("report %d: %+v vs %+v", i, decoded[i], reports[i])
		}
	}
}

func TestShardSplitterPresplit(t *testing.T) {
	shards := []string{"shard-0", "shard-1", "shard-2"}
	rr, err := ring.New(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := rr.Digest(nil)
	c := &codecCounter{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/v1/ring":
			json.NewEncoder(w).Encode(map[string]any{
				"digest": digest, "replicas": rr.Replicas(), "shards": shards, "down": nil,
			})
		case "/api/v1/observations:batch":
			body, _ := io.ReadAll(r.Body)
			c.mu.Lock()
			c.lastDigest = r.Header.Get(wire.HeaderRingDigest)
			c.lastSections = nil
			c.mu.Unlock()
			b := wire.GetBatch()
			defer wire.PutBatch(b)
			err := wire.ScanSections(body, func(shard []byte, frame, payload []byte) error {
				if err := wire.DecodePayload(payload, b); err != nil {
					return err
				}
				// Every report in the section must hash to the named shard —
				// the device reproduced the gateway's routing exactly.
				for _, dev := range b.Devices {
					owner, err := rr.Owner(dev, nil)
					if err != nil {
						return err
					}
					if shards[owner] != string(shard) {
						return fmt.Errorf("device %q in section %q, ring says %q", dev, shard, shards[owner])
					}
				}
				c.mu.Lock()
				c.lastSections = append(c.lastSections, string(shard))
				c.mu.Unlock()
				return nil
			})
			if err != nil {
				t.Errorf("sections: %v", err)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusOK)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	s := &ShardSplitter{BaseURL: srv.URL}
	if err := s.SendBatch(wireReports(24)); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastDigest != digest {
		t.Fatalf("upload carried digest %q, want %q", c.lastDigest, digest)
	}
	if len(c.lastSections) == 0 {
		t.Fatal("no sections reached the server")
	}
}

func TestShardSplitterRinglessFallsBackToPlainFrames(t *testing.T) {
	frames := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/ring" {
			http.NotFound(w, r) // a single bms box publishes no ring
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
			t.Errorf("content type = %q, want the wire codec", ct)
		}
		if d := r.Header.Get(wire.HeaderRingDigest); d != "" {
			t.Errorf("ringless upload carried digest %q", d)
		}
		body, _ := io.ReadAll(r.Body)
		if err := wire.DecodeFrame(body, &wire.Batch{}); err != nil {
			t.Errorf("body is not one plain frame: %v", err)
		}
		frames++
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	s := &ShardSplitter{BaseURL: srv.URL}
	if err := s.SendBatch(wireReports(8)); err != nil {
		t.Fatal(err)
	}
	if frames != 1 {
		t.Fatalf("server saw %d plain frames, want 1", frames)
	}
}

func TestShardSplitterSticky415Downgrade(t *testing.T) {
	c := &codecCounter{}
	srv := jsonOnlyServer(t, c, nil)
	defer srv.Close()

	s := &ShardSplitter{BaseURL: srv.URL, Retry: RetryPolicy{MaxAttempts: 5}}
	for i := 0; i < 3; i++ {
		if err := s.SendBatch(wireReports(4)); err != nil {
			t.Fatalf("SendBatch %d: %v", i, err)
		}
	}
	wirePosts, jsonPosts := c.snapshot()
	if wirePosts != 1 || jsonPosts != 3 {
		t.Fatalf("server saw %d wire / %d JSON posts, want 1 / 3 (sticky downgrade)", wirePosts, jsonPosts)
	}
}

func TestFailoverUplinkPerTargetDowngrade(t *testing.T) {
	// A mixed pair: the first target is JSON-only, the second speaks
	// wire. The downgrade must latch per target, not poison the pair.
	cOld := &codecCounter{}
	oldSrv := jsonOnlyServer(t, cOld, nil)
	defer oldSrv.Close()
	newWire := 0
	newSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == wire.ContentType {
			newWire++
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer newSrv.Close()

	u, err := NewFailoverUplink([]string{oldSrv.URL, newSrv.URL}, nil, RetryPolicy{MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	u.Codec = CodecBinary
	for i := 0; i < 2; i++ {
		if err := u.SendBatch(wireReports(4)); err != nil {
			t.Fatalf("SendBatch against the old target: %v", err)
		}
	}
	wirePosts, jsonPosts := cOld.snapshot()
	if wirePosts != 1 || jsonPosts != 2 {
		t.Fatalf("old target saw %d wire / %d JSON posts, want 1 / 2", wirePosts, jsonPosts)
	}

	// Fail over: the second target must still be offered the binary
	// codec — the old target's downgrade is not contagious.
	u2, err := NewFailoverUplink([]string{newSrv.URL, oldSrv.URL}, nil, RetryPolicy{MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	u2.Codec = CodecBinary
	if err := u2.SendBatch(wireReports(4)); err != nil {
		t.Fatal(err)
	}
	if newWire != 1 {
		t.Fatalf("wire-speaking target saw %d binary posts, want 1", newWire)
	}
}

package transport

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"occusim/internal/rng"
)

// shedServer sheds the first `sheds` requests with 429 + Retry-After,
// then serves 200s, recording bodies like flakyServer.
type shedServer struct {
	mu         sync.Mutex
	sheds      int
	retryAfter string // Retry-After header value; "" omits it
	hits       int
	bodies     []string
}

// seedBackoffJitter re-seeds the shared jitter source, making jittered
// backoff deterministic.
func seedBackoffJitter(seed uint64) {
	backoffJitter.mu.Lock()
	backoffJitter.src = rng.New(seed)
	backoffJitter.mu.Unlock()
}

func (s *shedServer) handler(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	s.mu.Lock()
	s.hits++
	shed := s.hits <= s.sheds
	s.bodies = append(s.bodies, b.String())
	ra := s.retryAfter
	s.mu.Unlock()
	if shed {
		if ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		http.Error(w, "overloaded", http.StatusTooManyRequests)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(`{"accepted":1}`))
}

func (s *shedServer) stats() (hits int, bodies []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, append([]string(nil), s.bodies...)
}

// TestRetryAfterHonored pins the shed contract: a 429 is retried (unlike
// other 4xx) and the wait is the server's Retry-After hint, not the
// computed exponential backoff.
func TestRetryAfterHonored(t *testing.T) {
	srv := &shedServer{sheds: 2, retryAfter: "2"}
	ts := httptest.NewServer(http.HandlerFunc(srv.handler))
	defer ts.Close()

	rec := &sleepRecorder{}
	u := &HTTPUplink{BaseURL: ts.URL, Retry: retryPolicy(rec, 4)}
	if err := u.Send(Report{Device: "p", AtSeconds: 1}); err != nil {
		t.Fatalf("send after 429 sheds: %v", err)
	}
	hits, _ := srv.stats()
	if hits != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits)
	}
	if len(rec.delays) != 2 {
		t.Fatalf("sleep count = %d, want 2", len(rec.delays))
	}
	for i, d := range rec.delays {
		if d != 2*time.Second {
			t.Fatalf("delay[%d] = %v, want the server's 2s Retry-After (not backoff)", i, d)
		}
	}
}

// TestRetryAfterJitterStretchesNotShrinks: under Jitter the hinted wait
// may grow (spreading the returning herd) but never drops below the
// server's hint.
func TestRetryAfterJitterStretchesNotShrinks(t *testing.T) {
	seedBackoffJitter(42)
	p := RetryPolicy{Jitter: true}
	hint := time.Second
	for i := 0; i < 100; i++ {
		d := p.shedDelay(hint)
		if d < hint {
			t.Fatalf("jittered shed delay %v below the server hint %v", d, hint)
		}
		if d > hint+hint/2 {
			t.Fatalf("jittered shed delay %v above hint+50%% = %v", d, hint+hint/2)
		}
	}
}

// TestBackoffFullJitter pins the jitter satellite: with Jitter set,
// delays are drawn uniformly from (0, d] of the deterministic envelope,
// deterministic under seedBackoffJitter, observable via the sleep hook.
func TestBackoffFullJitter(t *testing.T) {
	seedBackoffJitter(7)
	p := RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      true,
	}
	envelope := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	var first []time.Duration
	for n, env := range envelope {
		d := p.backoff(n)
		if d <= 0 || d > env {
			t.Fatalf("jittered backoff(%d) = %v outside (0, %v]", n, d, env)
		}
		first = append(first, d)
	}
	// Re-seeding reproduces the exact stream.
	seedBackoffJitter(7)
	for n := range envelope {
		if d := p.backoff(n); d != first[n] {
			t.Fatalf("re-seeded backoff(%d) = %v, want %v (stream must be deterministic)", n, d, first[n])
		}
	}
	// A different seed gives a different stream (vacuity check).
	seedBackoffJitter(8)
	same := true
	for n := range envelope {
		if p.backoff(n) != first[n] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 8 reproduced seed 7's jitter stream")
	}
}

// TestBackoffNoJitterUnchanged: the historical deterministic doubling is
// untouched when Jitter is off.
func TestBackoffNoJitterUnchanged(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	for n, w := range want {
		if d := p.backoff(n); d != w {
			t.Fatalf("backoff(%d) = %v, want %v", n, d, w)
		}
	}
}

// TestRetryBudgetCapsSpend: the Budget field fails the exchange once
// cumulative backoff would exceed it, instead of sleeping on.
func TestRetryBudgetCapsSpend(t *testing.T) {
	fs := &flakyServer{failures: 100, mode: "503"}
	ts := httptest.NewServer(http.HandlerFunc(fs.handler))
	defer ts.Close()

	rec := &sleepRecorder{}
	p := RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    time.Second,
		Budget:      50 * time.Millisecond, // 10+20 fits; +40 would blow it
		Sleep:       rec.sleep,
	}
	u := &HTTPUplink{BaseURL: ts.URL, Retry: p}
	err := u.Send(Report{Device: "p", AtSeconds: 1})
	if err == nil {
		t.Fatal("budgeted retry against a dead server should fail")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want a retry-budget failure wrapping the last error", err)
	}
	if v := Classify(err); !v.Answered || codeOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("budget error should wrap the last 503; verdict %+v", v)
	}
	if hits, _ := fs.stats(); hits != 3 {
		t.Fatalf("server saw %d attempts, want 3 (10ms+20ms spent, 40ms over budget)", hits)
	}
	var total time.Duration
	for _, d := range rec.delays {
		total += d
	}
	if total > p.Budget {
		t.Fatalf("slept %v, above the %v budget", total, p.Budget)
	}
}

// TestNilClientPerAttemptDeadline pins the per-attempt deadline: with a nil
// client each attempt gets its OWN deadline — an attempt that stalls
// past it is aborted and retried (not fatal to the exchange), and
// backoff sleeps between attempts consume none of a later attempt's
// window. The window is shrunk via the test hook so the test does not
// wait out real 5-second timeouts.
func TestNilClientPerAttemptDeadline(t *testing.T) {
	old := nilClientAttemptTimeout
	nilClientAttemptTimeout = 150 * time.Millisecond
	defer func() { nilClientAttemptTimeout = old }()

	var mu sync.Mutex
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		h := hits
		mu.Unlock()
		switch h {
		case 1:
			// Stall past the per-attempt deadline: the client must abort
			// THIS attempt and retry, not fail the whole exchange.
			time.Sleep(400 * time.Millisecond)
			w.WriteHeader(http.StatusOK)
		case 2:
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		default:
			// Inside a fresh 150ms window — succeeds only if earlier
			// attempts and the 200ms of backoff sleeps left it untouched.
			time.Sleep(80 * time.Millisecond)
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{}`))
		}
	}))
	defer ts.Close()

	// Real backoff sleeps: 100+100 = 200ms of waiting that must not
	// count against any attempt's 150ms deadline.
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	start := time.Now()
	if _, err := DoJSON(nil, http.MethodPost, ts.URL+"/x", []byte(`{}`), p); err != nil {
		t.Fatalf("post with nil client: %v", err)
	}
	mu.Lock()
	h := hits
	mu.Unlock()
	if h != 3 {
		t.Fatalf("server saw %d attempts, want 3 (deadline abort, 503, success)", h)
	}
	// Sanity: the exchange genuinely spanned timeout + two backoffs +
	// final attempt, all longer than one attempt window.
	if elapsed := time.Since(start); elapsed < 330*time.Millisecond {
		t.Fatalf("exchange took %v — the per-attempt timeout or backoffs did not engage", elapsed)
	}
}

// TestSequencedBatchIdenticalAfterShed is the end-to-end satellite pin:
// a sequenced batch shed with 429 retransmits byte-identically — same
// (Epoch, Seq) identities, no gaps — so the server-side high-water-mark
// dedup sees the retry as the same delivery.
func TestSequencedBatchIdenticalAfterShed(t *testing.T) {
	srv := &shedServer{sheds: 2, retryAfter: "1"}
	ts := httptest.NewServer(http.HandlerFunc(srv.handler))
	defer ts.Close()

	rec := &sleepRecorder{}
	u := &HTTPUplink{BaseURL: ts.URL, Retry: retryPolicy(rec, 5)}
	seq := NewSequencer(3)
	batch := []Report{
		{Device: "a", AtSeconds: 1},
		{Device: "b", AtSeconds: 1},
		{Device: "a", AtSeconds: 2},
	}
	for i := range batch {
		seq.Stamp(&batch[i])
	}
	if err := u.SendBatch(batch); err != nil {
		t.Fatalf("batch after sheds: %v", err)
	}
	_, bodies := srv.stats()
	if len(bodies) != 3 {
		t.Fatalf("server saw %d payloads, want 3", len(bodies))
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("attempt %d payload differs after shed:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	// The final accepted payload carries gap-free per-device sequences.
	for _, wantSeq := range []string{`"epoch":3,"seq":1`, `"epoch":3,"seq":2`} {
		if !strings.Contains(bodies[len(bodies)-1], wantSeq) {
			t.Fatalf("accepted payload missing %s: %s", wantSeq, bodies[0])
		}
	}
}

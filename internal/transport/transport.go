// Package transport implements the two uplink channels of Section VII
// that carry ranging reports from the phone to the Building Management
// Server:
//
//   - Wi-Fi: a direct HTTP POST to the BMS REST API ("more reliable and
//     stable but forces to keep on the wireless adapter").
//   - Bluetooth relay: a BLE connection to the beacon board, which
//     forwards the report to the BMS over its wired side ("more energy
//     [efficient], but it's less stable ... due to bugs in the BLE
//     Android API").
//
// A bounded retry queue papers over transient failures on either path.
package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/obs"
	"occusim/internal/rng"
	"occusim/internal/wire"
)

// transportMetrics is the package's telemetry: retry counts, the
// backoff waits those retries sleep through (previously invisible and
// untimed), budget exhaustions, and the device uplink's leader-hint
// redirects and target rotations. The transport layer is free
// functions over a value RetryPolicy, so the handles live at package
// level, installed once by Instrument; until then the pointer is nil
// and every hot-path use is one atomic load + branch.
type transportMetrics struct {
	retries         *obs.Counter
	backoffWait     *obs.Histogram
	budgetExhausted *obs.Counter
	redirects       *obs.Counter
	rotations       *obs.Counter
	// Per-codec batch upload counts (see wire.go): the forward-vs-
	// resplit ratio on the gateway side starts with what devices sent.
	wireJSON       *obs.Counter
	wireBinary     *obs.Counter
	wirePresplit   *obs.Counter
	wireDowngrades *obs.Counter
}

var pkgMet atomic.Pointer[transportMetrics]

// Instrument registers the transport layer's series on m. Call once at
// process wiring (bmsd, loadgen); later calls re-point the handles at
// the new registry.
func Instrument(m *obs.Metrics) {
	if m == nil {
		return
	}
	pkgMet.Store(&transportMetrics{
		retries:         m.Counter("transport_retries_total", "retransmission attempts after failed exchanges"),
		backoffWait:     m.Timing("transport_backoff_seconds", "backoff waits slept before retransmissions"),
		budgetExhausted: m.Counter("transport_retry_budget_exhausted_total", "sends abandoned with their retry budget spent"),
		redirects:       m.Counter("transport_leader_redirects_total", "409 stale-leader answers followed to the hinted leader"),
		rotations:       m.Counter("transport_target_rotations_total", "failover rotations to the next configured gateway"),
		wireJSON:        m.Counter("transport_wire_batches_total", "report batches uploaded, by codec", obs.L("codec", "json")),
		wireBinary:      m.Counter("transport_wire_batches_total", "report batches uploaded, by codec", obs.L("codec", "binary")),
		wirePresplit:    m.Counter("transport_wire_batches_total", "report batches uploaded, by codec", obs.L("codec", "presplit")),
		wireDowngrades:  m.Counter("transport_wire_downgrades_total", "sticky JSON downgrades of a target that refused the upload stream's upgrade"),
	})
}

// BeaconReport is one ranged beacon inside a report.
type BeaconReport struct {
	// ID is the beacon identity in "UUID/major/minor" form.
	ID string `json:"id"`
	// Distance is the filtered distance estimate in metres.
	Distance float64 `json:"distance"`
	// RSSI is the last aggregated RSSI in dBm.
	RSSI float64 `json:"rssi"`
}

// Report is the payload a device uploads after each scan cycle.
type Report struct {
	// Device names the reporting handset.
	Device string `json:"device"`
	// AtSeconds is the observation timestamp in seconds on the
	// building-wide report clock (simulated time in the experiments,
	// synchronised wall time in a deployment). Timestamps must be
	// comparable ACROSS devices, not just within one: the server merges
	// all devices onto one timeline — event ordering, dwell accounting
	// and the fleet's residue TTL sweep all compare one device's times
	// against another's.
	AtSeconds float64 `json:"atSeconds"`
	// Epoch and Seq make delivery exactly-once. Seq is a per-device
	// monotonic sequence number (first report is 1); the server keeps a
	// per-device high-water mark and ingests a sequenced report only
	// when its (Epoch, Seq) is above it, so a retransmitted batch —
	// whole-batch retry after a partial shard failure, a response lost
	// after the server committed — is acknowledged without being
	// re-ingested. Epoch orders sequence restarts: a device that loses
	// its counter (reboot, reinstall) bumps Epoch and restarts Seq at 1,
	// which the server accepts unconditionally over any Seq of a lower
	// epoch. Seq 0 marks an unsequenced report (legacy clients): it is
	// always ingested, keeping the historical at-least-once behaviour.
	Epoch uint64 `json:"epoch,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
	// Beacons lists the currently ranged beacons.
	Beacons []BeaconReport `json:"beacons"`
}

// Sequencer stamps reports with monotonic per-device sequence numbers
// under one device epoch — the client half of the exactly-once ingest
// contract. One Sequencer serves any number of devices (counters are
// per device name); it is safe for concurrent use.
type Sequencer struct {
	epoch uint64

	mu   sync.Mutex
	next map[string]uint64
}

// NewSequencer builds a sequencer for the given device epoch. Restart a
// device's stream under a higher epoch after its counter is lost; the
// server then accepts the restarted sequence over the old one.
func NewSequencer(epoch uint64) *Sequencer {
	return &Sequencer{epoch: epoch, next: map[string]uint64{}}
}

// Stamp assigns the report the next sequence number of its device (and
// the sequencer's epoch). Reports already carrying a sequence are left
// untouched, so re-stamping a retransmitted report cannot change its
// identity.
func (q *Sequencer) Stamp(r *Report) {
	if r.Seq != 0 || r.Device == "" {
		return
	}
	q.mu.Lock()
	q.next[r.Device]++
	r.Seq = q.next[r.Device]
	q.mu.Unlock()
	r.Epoch = q.epoch
}

// Uplink carries reports to the server.
type Uplink interface {
	// Send delivers one report, returning an error on failure.
	Send(Report) error
	// Name identifies the uplink in reports.
	Name() string
}

// BatchSender is implemented by uplinks that can deliver many reports in
// one exchange (the BMS batch-ingest endpoint). BatchingUplink uses it
// when available and falls back to per-report Send otherwise.
type BatchSender interface {
	// SendBatch delivers the reports in order. An error means none of
	// them were acknowledged — though under retrying transports the
	// server may still have processed an unacknowledged attempt
	// (at-least-once delivery; see RetryPolicy).
	SendBatch([]Report) error
}

// RetryPolicy bounds how an HTTP exchange retransmits after transient
// failures: connection-level errors (reset, refused, timeout), 5xx
// responses and 429 sheds are retried with capped exponential backoff;
// any other non-2xx status is a permanent rejection and fails
// immediately. A 429 carrying a Retry-After header is retried after the
// server's hint instead of the computed backoff — an overloaded server
// knows its own recovery horizon better than the client does. Each
// retry resends the identical request body, so a multi-report batch
// keeps its order across attempts.
//
// Delivery on the wire is at-least-once: a response lost after the
// server processed the request means the retry re-delivers the same
// payload. With sequenced reports (Report.Seq, stamped by a Sequencer
// or a BatchingUplink) the server dedupes re-deliveries against its
// per-device high-water mark, making ingest exactly-once end to end;
// unsequenced reports (Seq 0) keep the historical at-least-once
// semantics.
//
// The zero value means "one attempt, no retries", preserving the
// fire-once behaviour callers had before retries existed.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries for one exchange,
	// including the first; 0 and 1 both mean no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// retry doubles it, capped at MaxDelay. Defaults: 100 ms and 2 s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter draws each backoff uniformly from (0, d] instead of the
	// deterministic doubled delay d. Without it a fleet of devices that
	// failed together retries together — every backoff step re-delivers
	// the same synchronized storm that caused the failure. Full jitter
	// decorrelates the herd. Draws come from a seeded package-level
	// source (tests re-seed it, observable through the Sleep hook); a
	// Retry-After hint is stretched by up to +50% instead of shrunk, so
	// the jittered fleet never returns before the server asked it to.
	Jitter bool
	// Budget caps the total backoff this policy will sleep across one
	// exchange (one Target.Do or Stream.Exchange call). When the next
	// computed delay would push the cumulative spend past the budget, the
	// exchange fails with the last error instead of sleeping — bounding
	// how long a device's uplink window can stall on a dead or shedding
	// server. 0 means unbudgeted.
	Budget time.Duration
	// Sleep is the wait hook; nil means time.Sleep. Tests inject a
	// recorder so backoff is observable without real waiting.
	Sleep func(time.Duration)
}

// DefaultRetry is the policy the command-line clients use: four
// attempts, full-jitter backoff drawn from (0, 100ms], (0, 200ms] and
// (0, 400ms] (≤ 700 ms expected-case ≈ 350 ms), and a 5 s total retry
// budget so one uplink window can never stall past its flush period.
// Before jitter existed this policy slept exactly 100+200+400 ms, which
// synchronized whole-fleet retry storms; the envelope is unchanged,
// only the draw inside it is randomized.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      true,
		Budget:      5 * time.Second,
	}
}

// backoffJitter is the shared source behind RetryPolicy.Jitter.
// RetryPolicy is a value copied across goroutines, so the source cannot
// live on the policy; one locked package-level source keeps draws
// race-free and lets tests pin the stream.
var backoffJitter = struct {
	mu  sync.Mutex
	src *rng.Source
}{src: rng.New(uint64(time.Now().UnixNano()))}

func jitterFloat() float64 {
	backoffJitter.mu.Lock()
	f := backoffJitter.src.Float64()
	backoffJitter.mu.Unlock()
	return f
}

// attempts returns the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before retry number n (0-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if p.Jitter {
		j := time.Duration(jitterFloat() * float64(d))
		if j < time.Millisecond {
			j = time.Millisecond // never a zero sleep: that is a hot retry loop
		}
		d = j
	}
	return d
}

// shedDelay turns a server Retry-After hint into the actual wait: the
// hint verbatim, or hint + uniform(0, hint/2) under Jitter so a fleet
// shed at the same instant does not return at the same instant.
func (p RetryPolicy) shedDelay(hint time.Duration) time.Duration {
	if !p.Jitter || hint <= 0 {
		return hint
	}
	return hint + time.Duration(jitterFloat()*float64(hint)/2)
}

func (p RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Leadership headers, shared by every layer that speaks them: a face
// answers a stale write or a standby's refusal with 409 plus
// HeaderLeaderEpoch/HeaderLeaderHint, and HTTPUplink follows the hint.
// Defined here so producer and consumer cannot drift apart.
const (
	// HeaderLeaderEpoch is the highest epoch the answering shard has
	// granted, on a 409 stale-leader rejection.
	HeaderLeaderEpoch = "X-Leader-Epoch"
	// HeaderLeaderHint is the advertised URL of the current
	// leaseholder, on a 409 when the shard knows it.
	HeaderLeaderHint = "X-Leader-Hint"
)

// DoJSON performs one JSON exchange under the retry policy and returns
// the response payload. A nil client gets a 5-second deadline PER
// ATTEMPT (a per-attempt request context, not http.Client.Timeout — the
// client timeout would span every attempt and the backoff sleeps between
// them, leaving the last attempt born dead). Callers with a fixed
// endpoint prepare a Target once instead.
func DoJSON(client *http.Client, method, rawURL string, body []byte, policy RetryPolicy) ([]byte, error) {
	t, err := NewTarget(method, rawURL)
	if err != nil {
		return nil, err
	}
	return t.Do(client, body, policy, nil)
}

// jsonHeader is the request header set of every exchange: plain JSON.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// Target is one prepared JSON exchange endpoint: the method and the URL
// parsed once — an uplink keeps one per endpoint it posts to, so an
// exchange constructs nothing but its request. Read-only after
// NewTarget, and safe for concurrent use: net/http reads a request's URL
// and header values, it never writes to them (a client with a cookie
// jar would; no caller installs one).
type Target struct {
	method string
	url    *url.URL
}

// NewTarget prepares an endpoint. A URL that does not parse fails here,
// once, before any exchange could burn backoff on it.
func NewTarget(method, rawURL string) (Target, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return Target{}, fmt.Errorf("transport: request: %w", err)
	}
	return Target{method: method, url: u}, nil
}

// Do performs one exchange with the target under the retry policy and
// returns the response payload. The payload is read into *dst (reused,
// grown as needed) and returned as a view of it, for callers that decode
// or discard it before reusing the buffer; a nil dst gets a fresh buffer
// sized for the announced length, which the caller owns.
//
// A failure is retried when Classify calls it a shed, unreachable or
// unavailable (an answered 5xx); anything else fails on the first answer
// without sleeping or spending retry budget — a 409 stale-leader
// rejection among them, whose leader hint lets an HTTPUplink switch to
// the real leader at once instead of burning backoff against a deposed
// gateway.
func (t Target) Do(client *http.Client, body []byte, policy RetryPolicy, dst *[]byte) ([]byte, error) {
	var attemptTimeout time.Duration
	if client == nil {
		// The shared pooled client, not a throwaway: a fresh Client per
		// call still shares DefaultTransport, whose 2-idle-conns-per-host
		// cap makes a concurrent device fleet redial constantly. The 5 s
		// deadline rides the per-attempt request context as before.
		client = pooledClient
		attemptTimeout = nilClientAttemptTimeout
	}
	if dst == nil {
		dst = new([]byte)
	}
	for backoff := policy.Start(); ; {
		payload, err := t.doOnce(client, body, attemptTimeout, dst)
		if err == nil {
			return payload, nil
		}
		v, again := retried(err)
		if !again {
			return nil, err
		}
		if err = backoff.Wait(err, v); err != nil {
			return nil, err
		}
	}
}

// Backoff is one exchange's progress through its RetryPolicy: attempts
// made and backoff slept. Every retrying exchange — Target.Do and
// Stream.Exchange — loops "try; on a retryable failure, Wait", so
// attempts, delays, the budget and the retry counters mean one thing.
type Backoff struct {
	policy  RetryPolicy
	retries int
	spent   time.Duration
}

// Start begins an exchange under the policy.
func (p RetryPolicy) Start() Backoff { return Backoff{policy: p} }

// Wait follows a failed attempt that may be retried, v its verdict. It
// sleeps the delay before the next attempt — the capped exponential
// backoff, or, when the failure carries a retry hint, that hint — and
// returns nil; or it returns the error the exchange ends with: lastErr
// once the attempts are spent, lastErr wrapped once the next sleep would
// pass the budget.
func (b *Backoff) Wait(lastErr error, v Verdict) error {
	p := b.policy
	if b.retries+1 >= p.attempts() {
		return lastErr
	}
	d := p.backoff(b.retries)
	if v.Hinted {
		d = p.shedDelay(v.After)
	}
	b.retries++
	if p.Budget > 0 && b.spent+d > p.Budget {
		if tm := pkgMet.Load(); tm != nil {
			tm.budgetExhausted.Inc()
		}
		// The cumulative wait is part of the diagnosis: a budget blown in
		// 2 attempts of long sheds reads differently from one nibbled
		// away by many short 5xx retries.
		return fmt.Errorf("transport: retry budget %v exhausted after %d attempts (waited %v): %w",
			p.Budget, b.retries, b.spent, lastErr)
	}
	b.spent += d
	if tm := pkgMet.Load(); tm != nil {
		tm.retries.Inc()
		tm.backoffWait.ObserveDuration(d)
	}
	p.sleep(d)
	return nil
}

// nilClientAttemptTimeout is the deadline an exchange applies to EACH
// attempt when handed a nil client. A var so tests can shrink the
// window without waiting out real 5-second timeouts.
var nilClientAttemptTimeout = 5 * time.Second

// AttemptTimeout is the deadline one attempt of an exchange through
// client runs under: the client's own Timeout, or the nil client's
// per-attempt default.
func AttemptTimeout(client *http.Client) time.Duration {
	if client == nil {
		return nilClientAttemptTimeout
	}
	return client.Timeout
}

// attempt is one exchange attempt's request and body reader in a single
// allocation. Every attempt gets a fresh one over the same bytes, so a
// retry resends the whole payload.
type attempt struct {
	req     http.Request
	rd      bytes.Reader
	payload []byte
}

// rewind is the request's GetBody: net/http needs it to resend a POST
// over a fresh connection when a kept-alive one died under the write.
func (a *attempt) rewind() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(a.payload)), nil
}

// doOnce is a single exchange attempt; timeout > 0 bounds just this
// attempt via the request context.
func (t Target) doOnce(client *http.Client, body []byte, timeout time.Duration, dst *[]byte) ([]byte, error) {
	a := &attempt{payload: body, req: http.Request{
		Method: t.method, URL: t.url, Host: t.url.Host, Header: jsonHeader,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}}
	req := &a.req
	if body != nil {
		// A NopCloser over a *bytes.Reader is what net/http recognises as
		// an in-memory body: it then writes headers and body in one go
		// instead of flushing the headers first.
		a.rd.Reset(body)
		req.Body, req.GetBody, req.ContentLength = io.NopCloser(&a.rd), a.rewind, int64(len(body))
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		req = req.WithContext(ctx)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: %s: %w", strings.ToLower(t.method), err)
	}
	defer resp.Body.Close()
	payload, err := wire.ReadBody(resp.Body, resp.ContentLength, math.MaxInt64, dst)
	if resp.StatusCode/100 != 2 {
		return nil, answered(resp, *dst)
	}
	if err != nil {
		return nil, noAnswer{fmt.Errorf("transport: read response: %w", err)}
	}
	return payload, nil
}

// answered reads a failure answer as the *Error it is: the status, and the
// Retry-After, leader hint and, on a 409, granted epoch its headers carry,
// with the start of its body as the reason.
func answered(resp *http.Response, body []byte) *Error {
	snippet := strings.TrimSpace(string(body))
	if len(snippet) > 200 {
		snippet = snippet[:200] + "…"
	}
	if snippet != "" {
		snippet = ": " + snippet
	}
	e := &Error{Code: resp.StatusCode, Answered: true, Leader: strings.TrimSpace(resp.Header.Get(HeaderLeaderHint)),
		Err: errors.New("transport: server returned " + resp.Status + snippet)}
	if ra := strings.TrimSpace(resp.Header.Get("Retry-After")); ra != "" {
		// Integer seconds per RFC 9110; fractional accepted leniently.
		if secs, perr := strconv.ParseFloat(ra, 64); perr == nil && secs >= 0 {
			e.RetryAfter, e.Hinted = time.Duration(secs*float64(time.Second)), true
		}
	}
	if e.Code == http.StatusConflict {
		e.Granted, _ = strconv.ParseUint(strings.TrimSpace(resp.Header.Get(HeaderLeaderEpoch)), 10, 64)
	}
	return e
}

// GetJSON fetches url and returns the response payload under the policy.
func GetJSON(client *http.Client, rawURL string, policy RetryPolicy) ([]byte, error) {
	return DoJSON(client, http.MethodGet, rawURL, nil, policy)
}

// SendFunc adapts a function to the Uplink interface, used to wire the
// simulated in-process BMS without HTTP.
type SendFunc struct {
	// F handles one report.
	F func(Report) error
	// Label is the uplink name.
	Label string
}

// Send implements Uplink.
func (s SendFunc) Send(r Report) error { return s.F(r) }

// Name implements Uplink.
func (s SendFunc) Name() string { return s.Label }

// BTRelay models the Bluetooth path: the phone hands the report to the
// beacon board over a fresh BLE connection, and the board forwards it.
// The BLE hop is flaky (Android 4.x connection bugs), modelled as a drop
// probability.
type BTRelay struct {
	next     Uplink
	dropProb float64
	src      *rng.Source
}

// NewBTRelay wraps the board's onward uplink. dropProb ∈ [0, 1] is the
// BLE connection failure probability.
func NewBTRelay(next Uplink, dropProb float64, src *rng.Source) (*BTRelay, error) {
	if next == nil {
		return nil, fmt.Errorf("transport: BT relay needs an onward uplink")
	}
	if dropProb < 0 || dropProb > 1 {
		return nil, fmt.Errorf("transport: drop probability %v outside [0,1]", dropProb)
	}
	if src == nil {
		return nil, fmt.Errorf("transport: BT relay needs an rng source")
	}
	return &BTRelay{next: next, dropProb: dropProb, src: src}, nil
}

// Name implements Uplink.
func (b *BTRelay) Name() string { return "bluetooth-relay" }

// Send implements Uplink.
func (b *BTRelay) Send(r Report) error {
	if b.src.Bool(b.dropProb) {
		return fmt.Errorf("transport: BLE connection to beacon board failed")
	}
	return b.next.Send(r)
}

// Queue is a bounded store-and-forward retry queue in front of an
// uplink: failed reports are retried on subsequent flushes until their
// attempt budget is exhausted.
type Queue struct {
	uplink      Uplink
	maxLen      int
	maxAttempts int

	pending []queued
}

type queued struct {
	report   Report
	attempts int
}

// NewQueue builds a queue of at most maxLen reports, each retried at
// most maxAttempts times.
func NewQueue(uplink Uplink, maxLen, maxAttempts int) (*Queue, error) {
	if uplink == nil {
		return nil, fmt.Errorf("transport: queue needs an uplink")
	}
	if maxLen < 1 || maxAttempts < 1 {
		return nil, fmt.Errorf("transport: queue bounds must be positive (len=%d, attempts=%d)", maxLen, maxAttempts)
	}
	return &Queue{uplink: uplink, maxLen: maxLen, maxAttempts: maxAttempts}, nil
}

// Enqueue adds a report, evicting the oldest when full. It returns true
// when an eviction happened.
func (q *Queue) Enqueue(r Report) bool {
	evicted := false
	if len(q.pending) >= q.maxLen {
		q.pending = q.pending[1:]
		evicted = true
	}
	q.pending = append(q.pending, queued{report: r})
	return evicted
}

// Flush attempts to send every pending report in order. Reports that
// fail stay queued unless their attempt budget is exhausted. It returns
// the number delivered during this flush.
func (q *Queue) Flush() int {
	delivered := 0
	var remaining []queued
	for _, item := range q.pending {
		item.attempts++
		if err := q.uplink.Send(item.report); err != nil {
			if item.attempts < q.maxAttempts {
				remaining = append(remaining, item)
			}
			continue
		}
		delivered++
	}
	q.pending = remaining
	return delivered
}

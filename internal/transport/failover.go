package transport

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"occusim/internal/wire"
)

// FailoverUplink posts reports to an active/standby gateway pair (or
// any list of equivalent ingest frontends), following leadership as it
// moves:
//
//   - A 409 stale-leader answer carrying a leader hint switches to the
//     hinted URL IMMEDIATELY — no backoff, no retry-budget spend. The
//     hint comes from the shard quorum's own grant record, so the
//     hinted target is the leader by the arbiter's account; sleeping
//     before following it only prolongs the outage.
//   - A connection failure, timeout, exhausted per-target retry, or
//     hint-less 409 rotates to the next configured target.
//
// The uplink sticks to whichever target last succeeded, so steady
// state costs nothing extra; hops are bounded per send so a deposed
// pair pointing hints at each other cannot loop forever. Safe for
// concurrent use.
type FailoverUplink struct {
	// Client defaults to a 5-second-per-attempt client when nil (see
	// DoJSON).
	Client *http.Client
	// Retry bounds retransmission against ONE target; failing over to
	// the next target starts a fresh policy run.
	Retry RetryPolicy
	// Codec picks the batch encoding (see HTTPUplink.Codec). The 415
	// downgrade is per target: an old gateway in the pair falls back to
	// JSON while its binary-speaking partner keeps the fast codec.
	Codec Codec

	mu        sync.Mutex
	targets   []string
	cur       int
	redirects uint64 // 409 leader-hint switches
	rotations uint64 // next-target rotations (refused/exhausted)
	jsonOnly  map[string]bool
}

// NewFailoverUplink builds an uplink over the given gateway base URLs
// (e.g. "http://127.0.0.1:8080"), preferring them in order.
func NewFailoverUplink(targets []string, client *http.Client, retry RetryPolicy) (*FailoverUplink, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("transport: failover uplink needs at least one target")
	}
	u := &FailoverUplink{Client: client, Retry: retry}
	u.targets = append(u.targets, targets...)
	return u, nil
}

// Name implements Uplink.
func (u *FailoverUplink) Name() string { return "wifi-http-failover" }

// Send implements Uplink. Binary mode delivers a one-report batch (see
// HTTPUplink.Send).
func (u *FailoverUplink) Send(r Report) error {
	if u.Codec == CodecBinary {
		return u.postBatch([]Report{r})
	}
	body, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("transport: marshal report: %w", err)
	}
	return u.post("/api/v1/observations", body)
}

// SendBatch implements BatchSender. A retried or failed-over POST
// carries the identical body, so batch order and identity survive the
// handover — the shards' seq marks dedupe whatever landed twice.
func (u *FailoverUplink) SendBatch(reports []Report) error {
	return u.postBatch(reports)
}

// postBatch delivers a batch under the configured codec. Binary
// encoding happens once per send, not per hop — every target sees the
// identical frame; targets that answered 415 before get JSON instead.
func (u *FailoverUplink) postBatch(reports []Report) error {
	if u.Codec != CodecBinary {
		body, err := json.Marshal(reports)
		if err != nil {
			return fmt.Errorf("transport: marshal batch: %w", err)
		}
		err = u.post("/api/v1/observations:batch", body)
		if err == nil {
			wireCount("json")
		}
		return err
	}
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := EncodeReports(b, reports); err != nil {
		// Unencodable identity: JSON carries anything.
		body, jerr := json.Marshal(reports)
		if jerr != nil {
			return fmt.Errorf("transport: marshal batch: %w", jerr)
		}
		return u.post("/api/v1/observations:batch", body)
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = wire.AppendFrame(*buf, b)
	jsonBody := func() ([]byte, error) { return json.Marshal(reports) }
	err := u.postNegotiated("/api/v1/observations:batch", *buf, jsonBody)
	if err == nil {
		wireCount("binary")
	}
	return err
}

// Target returns the URL the next send will try first.
func (u *FailoverUplink) Target() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.targets[u.cur]
}

// Stats returns lifetime (leader-hint redirects, target rotations).
func (u *FailoverUplink) Stats() (redirects, rotations uint64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.redirects, u.rotations
}

// post delivers one JSON payload over the failover hop loop.
func (u *FailoverUplink) post(path string, body []byte) error {
	return u.hop(func(base string) error {
		_, err := PostJSON(u.Client, base+path, body, u.Retry)
		return err
	})
}

// postNegotiated delivers a binary frame over the hop loop, with
// per-target content negotiation: a target that ever answered 415 is
// remembered and gets the JSON rendering (built lazily, at most once)
// on this and every later send.
func (u *FailoverUplink) postNegotiated(path string, frame []byte, jsonBody func() ([]byte, error)) error {
	var jb []byte // lazy JSON rendering, shared across hops
	renderJSON := func() ([]byte, error) {
		if jb == nil {
			var err error
			if jb, err = jsonBody(); err != nil {
				return nil, err
			}
		}
		return jb, nil
	}
	return u.hop(func(base string) error {
		if u.targetJSONOnly(base) {
			body, err := renderJSON()
			if err != nil {
				return err
			}
			_, err = PostJSON(u.Client, base+path, body, u.Retry)
			return err
		}
		_, err := DoJSONHeaders(u.Client, http.MethodPost, base+path, frame, wireHeader, u.Retry)
		if isUnsupportedMedia(err) {
			// Old frontend: downgrade THIS target for good and resend
			// the same batch as JSON before giving up on it.
			u.markJSONOnly(base)
			noteDowngrade()
			body, jerr := renderJSON()
			if jerr != nil {
				return jerr
			}
			_, err = PostJSON(u.Client, base+path, body, u.Retry)
		}
		return err
	})
}

// targetJSONOnly reports whether base was sticky-downgraded to JSON.
func (u *FailoverUplink) targetJSONOnly(base string) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.jsonOnly[base]
}

// markJSONOnly pins base to the JSON codec for the uplink's lifetime.
func (u *FailoverUplink) markJSONOnly(base string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.jsonOnly == nil {
		u.jsonOnly = map[string]bool{}
	}
	u.jsonOnly[base] = true
}

// hop runs one delivery attempt per target, hopping until success or
// the hop budget runs out. lastErr is whatever the final target
// answered.
func (u *FailoverUplink) hop(do func(base string) error) error {
	u.mu.Lock()
	base := u.targets[u.cur]
	// Every configured target twice (leadership may move mid-send)
	// plus slack for hint redirects to URLs outside the list.
	maxHops := 2*len(u.targets) + 2
	u.mu.Unlock()

	var lastErr error
	for hop := 0; hop < maxHops; hop++ {
		err := do(base)
		if err == nil {
			u.commit(base)
			return nil
		}
		lastErr = err
		if code, ok := StatusCode(err); ok && code == http.StatusConflict {
			if hint, ok := LeaderHint(err); ok && hint != base {
				// Deposed target named the leader: go there now.
				u.mu.Lock()
				u.redirects++
				u.mu.Unlock()
				if tm := pkgMet.Load(); tm != nil {
					tm.redirects.Inc()
				}
				base = hint
				continue
			}
		}
		base = u.rotate(base)
	}
	return fmt.Errorf("transport: all gateway targets failed: %w", lastErr)
}

// commit pins future sends to the target that just worked, learning
// hinted URLs that were not configured.
func (u *FailoverUplink) commit(base string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for i, t := range u.targets {
		if t == base {
			u.cur = i
			return
		}
	}
	u.targets = append(u.targets, base)
	u.cur = len(u.targets) - 1
}

// rotate advances to the configured target after the one that just
// failed (falling back to round-robin from the sticky index when the
// failure was at a hinted, unlisted URL).
func (u *FailoverUplink) rotate(failed string) string {
	if tm := pkgMet.Load(); tm != nil {
		tm.rotations.Inc()
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.rotations++
	next := (u.cur + 1) % len(u.targets)
	for i, t := range u.targets {
		if t == failed {
			next = (i + 1) % len(u.targets)
			break
		}
	}
	u.cur = next
	return u.targets[next]
}

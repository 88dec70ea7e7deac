// The device uplink: the one hop of the paper's protocol — a handset
// POSTs its ranging reports to the BMS over REST — with everything the
// deployment adds to that hop composed on one type: the framed codec on an
// upgraded stream (stream.go), device-side pre-split against the ring the
// target publishes, the sticky JSON downgrade for a server that predates
// the stream, and following leadership across equivalent frontends.
// DESIGN.md "The framed legs" is the prose form of deliver.
package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/ring"
	"occusim/internal/wire"
)

// HTTPUplink posts reports to the BMS observations endpoints — the
// Wi-Fi path. The zero value of everything but BaseURL is the paper's
// contract: JSON, one target, one attempt. Safe for concurrent use.
type HTTPUplink struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Peers lists further equivalent frontends of the same deployment
	// (the standby of an HA gateway pair), preferred after BaseURL in
	// order. The uplink sticks to whichever target last answered.
	Peers []string
	// Client defaults to the shared pooled client under a 5-second
	// deadline per attempt when nil (see Target.Do).
	Client *http.Client
	// Retry bounds retransmission against ONE target (the zero policy is
	// one attempt); moving to another target starts a fresh policy run.
	Retry RetryPolicy
	// Codec picks the encoding offered first: CodecJSON (the default), or
	// CodecBinary — internal/wire frames, pre-split per shard where the
	// target publishes a ring, each upload one envelope on a stream the
	// target upgrades once; a target that refuses the upgrade is spoken
	// JSON from then on.
	Codec Codec

	// cur is the target the next send tries first; nil until the first.
	cur                  atomic.Pointer[uplinkTarget]
	redirects, rotations atomic.Uint64

	mu      sync.Mutex
	targets []*uplinkTarget // BaseURL, Peers, then every hinted leader followed
}

// uplinkTarget is what the uplink knows about one frontend.
type uplinkTarget struct {
	base string

	// The prepared endpoints, on first use (the uplink is configured by
	// struct literal, so there is no constructor to do it in): one JSON
	// report, the batch route as JSON, and the stream route.
	once          sync.Once
	single, batch Target
	stream        *Stream
	err           error

	// jsonOnly latches once the target refused the upgrade: it does not
	// speak the codec and will not learn it mid-run, so asking again would
	// waste a round trip a send. Per target — an old frontend does not cost
	// its partner the codec.
	jsonOnly atomic.Bool

	// view is the ring the target published last; fetch serialises the
	// fetches, never the reads.
	view  atomic.Pointer[ringView]
	fetch sync.Mutex
}

// ringView is one answer of GET /api/v1/ring. ring is nil when the target
// published none a device can split against — a single bms box (404), a
// failed fetch, a gateway that must see every timestamp before routing and
// so publishes no digest: uploads then go as plain frames, which every
// wire-speaking server ingests directly.
type ringView struct {
	at     time.Time
	ring   *ring.Ring
	names  []string // the ring's members, as sections name them
	down   []bool
	digest uint64 // the ring's digest, stamped on each upload split by it
}

// ringRefresh is how long a ring view is used before it is fetched again:
// a MarkDown or rebalance leaves at most this window of stale pre-splits,
// which the gateway detects by digest and re-splits server-side. A var so
// the in-package tests can shorten it.
var ringRefresh = 2 * time.Second

// RingInfo is the routing table a pre-splitting device needs, the
// GET /api/v1/ring payload a fleet gateway serves: the inputs of the
// ring function plus their canonical digest. A device that splits
// against this view stamps the digest on its upload, and the gateway
// forwards the pre-split sections only while the digest still matches
// its own.
type RingInfo struct {
	Digest   string   `json:"digest"`
	Replicas int      `json:"replicas"`
	Shards   []string `json:"shards"`
	Down     []bool   `json:"down"`
}

// Name implements Uplink.
func (u *HTTPUplink) Name() string { return "wifi-http" }

// Send implements Uplink: the single-observation route as JSON, a
// one-report frame through the batch route under CodecBinary — the server
// treats a batch of one as it treats a single observation.
func (u *HTTPUplink) Send(r Report) error { return u.deliver([]Report{r}, true) }

// SendBatch implements BatchSender against the batch-ingest route: one
// POST carries the whole slice, and every retried, downgraded, redirected
// or rotated POST carries the same reports under the same (Epoch, Seq), so
// order survives retransmission and the shards' marks dedupe whatever
// landed twice.
func (u *HTTPUplink) SendBatch(reports []Report) error {
	if len(reports) == 0 {
		return nil
	}
	return u.deliver(reports, false)
}

// Stats returns lifetime (leader-hint redirects, target rotations).
func (u *HTTPUplink) Stats() (redirects, rotations uint64) {
	return u.redirects.Load(), u.rotations.Load()
}

// start returns the sticky target, building the list on first use.
func (u *HTTPUplink) start() *uplinkTarget {
	if t := u.cur.Load(); t != nil {
		return t
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.targets == nil {
		u.targets = append(u.targets, &uplinkTarget{base: u.BaseURL})
		for _, peer := range u.Peers {
			u.targets = append(u.targets, &uplinkTarget{base: peer})
		}
		u.cur.Store(u.targets[0])
	}
	return u.cur.Load()
}

// deliver is the negotiation ladder, the only one. Against the sticky
// target: JSON when that is the codec or the target is latched (the single
// route for Send, the batch route for SendBatch); otherwise one envelope
// on the target's stream — sections pre-split under the digest of the ring
// the target published, or one plain frame. A refused upgrade latches that
// target and resends as JSON at once. Any other failure either says
// something about the target — next decides where to go — or is returned
// as it came.
func (u *HTTPUplink) deliver(reports []Report, single bool) error {
	t := u.start()
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	for hop := 0; ; {
		err := t.prepare(u.Client)
		if err == nil {
			framed := u.Codec == CodecBinary && !t.jsonOnly.Load()
			counted, stamp, dest := "json", uint64(0), t.batch
			var body []byte
			switch {
			case framed:
				counted = "binary"
				if v := t.ringView(u.Client, u.Retry); v.ring != nil {
					stamp, counted = v.digest, "presplit"
					*buf, err = appendSections((*buf)[:0], v, reports)
				} else {
					*buf, err = appendFrame((*buf)[:0], reports)
				}
				body = *buf
			case single:
				counted, dest = "", t.single
				if body, err = json.Marshal(&reports[0]); err != nil {
					err = fmt.Errorf("transport: marshal report: %w", err)
				}
			default:
				if body, err = json.Marshal(reports); err != nil {
					err = fmt.Errorf("transport: marshal batch: %w", err)
				}
			}
			if err != nil {
				return err // no target could take these reports
			}
			if framed {
				err = t.stream.Exchange(wire.StreamFrame, stamp, body, u.Retry, nil)
				if refusesStream(err) {
					// Senders refused together latch once, and count once.
					if tm := pkgMet.Load(); !t.jsonOnly.Swap(true) && tm != nil {
						tm.wireDowngrades.Inc()
					}
					continue
				}
			} else {
				err = postDiscard(u.Client, dest, body, u.Retry)
			}
			if err == nil {
				if counted != "" {
					wireCount(counted)
				}
				if u.cur.Load() != t {
					u.cur.Store(t)
				}
				return nil
			}
		}
		hop++
		if t, err = u.next(t, err, hop); err != nil {
			return err
		}
	}
}

// refusesStream reports whether err is a target refusing the stream
// upgrade as a route it does not serve — a rejection, or an answer that is
// no failure — rather than failing to serve it: the target does not speak
// the codec.
func refusesStream(err error) bool {
	return errors.Is(err, ErrUpgradeRefused) && Classify(err).Class == Rejected
}

// next decides what the hop-th failed exchange of a send, with t, means.
// A stale failure naming another leader goes there now — no backoff, no
// retry budget spent: the hint comes from the shard quorum's own grant
// record — and the URL is learned. A rejected or too-large upload is
// returned unwrapped, as from a single target: there is nowhere else to
// go. Anything else says something about the target — unreachable, a 5xx
// or 429 left over once Retry is spent, a 409 without a hint, a base URL
// that does not parse — and rotates to the next target when there is one.
// Hops are bounded, so a deposed pair hinting at each other cannot loop.
func (u *HTTPUplink) next(t *uplinkTarget, err error, hop int) (*uplinkTarget, error) {
	v := Classify(err)
	if v.Class == Rejected || v.Class == TooLarge {
		return nil, err
	}
	hint := v.Leader
	redirect := v.Class == Stale && hint != "" && hint != t.base
	u.mu.Lock()
	defer u.mu.Unlock()
	n := len(u.targets)
	if n == 1 && !redirect {
		return nil, err
	}
	// Every target twice (leadership may move mid-send) plus slack for
	// hints to URLs outside the list.
	if hop >= 2*n+2 {
		return nil, fmt.Errorf("transport: all gateway targets failed: %w", err)
	}
	tm := pkgMet.Load()
	if redirect {
		u.redirects.Add(1)
		if tm != nil {
			tm.redirects.Inc()
		}
		for _, known := range u.targets {
			if known.base == hint {
				return known, nil
			}
		}
		u.targets = append(u.targets, &uplinkTarget{base: hint})
		return u.targets[n], nil
	}
	u.rotations.Add(1)
	if tm != nil {
		tm.rotations.Inc()
	}
	to := u.targets[(slices.Index(u.targets, t)+1)%n]
	u.cur.Store(to)
	return to, nil
}

func (t *uplinkTarget) prepare(client *http.Client) error {
	t.once.Do(func() {
		if t.single, t.err = NewTarget(http.MethodPost, t.base+"/api/v1/observations"); t.err != nil {
			return
		}
		if t.batch, t.err = NewTarget(http.MethodPost, t.base+BatchPath); t.err != nil {
			return
		}
		t.stream, t.err = NewStream(t.base, wire.UplinkPath, wire.UplinkProtocol, client)
	})
	return t.err
}

// ringView returns the view to split this send against. A sender waits
// for a fetch only while the target has no view at all, so the first
// upload is already pre-split; a view past ringRefresh is re-fetched by
// whichever one sender gets there first, in one attempt (the target may
// have just died, and its failure is the send's to discover), while every
// other sender goes on with the view it holds.
func (t *uplinkTarget) ringView(client *http.Client, policy RetryPolicy) *ringView {
	v := t.view.Load()
	if v != nil && (time.Since(v.at) < ringRefresh || !t.fetch.TryLock()) {
		return v // fresh, or another sender is refreshing it
	}
	if v == nil {
		t.fetch.Lock()
	} else {
		policy = RetryPolicy{}
	}
	defer t.fetch.Unlock()
	if cur := t.view.Load(); cur != v {
		return cur // fetched while this sender waited
	}
	v = &ringView{at: time.Now()}
	var resp RingInfo
	payload, err := GetJSON(client, t.base+"/api/v1/ring", policy)
	if err == nil && json.Unmarshal(payload, &resp) == nil && len(resp.Shards) > 0 {
		// The digest is ring.Digest's hex of a u64, which the envelope
		// carries as the u64 itself; 0 would read as a plain frame.
		digest, derr := strconv.ParseUint(resp.Digest, 16, 64)
		if r, err := ring.New(resp.Shards, resp.Replicas); err == nil && derr == nil && digest != 0 {
			v.ring, v.names, v.down, v.digest = r, resp.Shards, resp.Down, digest
		}
	}
	t.view.Store(v)
	return v
}

// appendFrame appends reports as one wire frame.
func appendFrame(dst []byte, reports []Report) ([]byte, error) {
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := EncodeReports(b, reports); err != nil {
		return dst, err
	}
	return wire.AppendFrame(dst, b), nil
}

// appendSections appends reports split by the view's ring owner, one
// named section per shard. Section order is shard-first-appearance, and
// each device's reports keep their order inside its section — the same
// stable split the gateway itself performs. The per-owner batches live in
// pooled scratch, so a warm split allocates nothing.
func appendSections(dst []byte, v *ringView, reports []Report) ([]byte, error) {
	sc := sectionPool.Get().(*sectionScratch)
	defer sc.release()
	if n := v.ring.Members(); cap(sc.per) < n {
		sc.per = make([]*wire.Batch, n)
	} else {
		sc.per = sc.per[:n]
	}
	for i := range reports {
		owner, err := v.ring.Owner(reports[i].Device, v.down)
		if err != nil {
			return dst, err
		}
		b := sc.per[owner]
		if b == nil {
			b = wire.GetBatch()
			sc.per[owner] = b
			sc.order = append(sc.order, owner)
		}
		if err := EncodeReports(b, reports[i:i+1]); err != nil {
			return dst, err
		}
	}
	for _, owner := range sc.order {
		dst = wire.AppendSection(dst, v.names[owner])
		dst = wire.AppendFrame(dst, sc.per[owner])
	}
	return dst, nil
}

// sectionScratch is one split's per-owner batches, indexed by ring
// member, and the owners in first-appearance order.
type sectionScratch struct {
	per   []*wire.Batch
	order []int
}

var sectionPool = sync.Pool{New: func() any { return new(sectionScratch) }}

func (sc *sectionScratch) release() {
	for _, owner := range sc.order {
		wire.PutBatch(sc.per[owner])
		sc.per[owner] = nil
	}
	sc.order = sc.order[:0]
	sectionPool.Put(sc)
}

// postDiscard posts body and drops the ack, read through a pooled buffer:
// the device side has no use for the rooms.
func postDiscard(client *http.Client, t Target, body []byte, policy RetryPolicy) error {
	ack := wire.GetBuf()
	defer wire.PutBuf(ack)
	_, err := t.Do(client, body, policy, ack)
	return err
}

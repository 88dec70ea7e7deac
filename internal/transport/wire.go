// Binary wire codec support for the HTTP uplinks: content negotiation
// between JSON and the internal/wire frame format, the sticky 415
// downgrade, and the device-side shard splitter that pre-splits
// batches against the gateway's published ring so the gateway can
// forward frames instead of decoding and re-splitting them.
package transport

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"occusim/internal/ibeacon"
	"occusim/internal/ring"
	"occusim/internal/wire"
)

// Codec selects the report batch encoding an uplink speaks.
type Codec int

const (
	// CodecJSON is the compatibility face every server accepts.
	CodecJSON Codec = iota
	// CodecBinary is the internal/wire frame format; a server that does
	// not speak it answers 415 and the uplink downgrades to JSON once,
	// stickily, per target.
	CodecBinary
)

// ParseCodec parses the -wire flag values.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	default:
		return CodecJSON, fmt.Errorf("transport: unknown wire codec %q (want json or binary)", s)
	}
}

func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// EncodeReports fills b from reports, parsing each beacon identity
// into its binary form. An unparseable identity fails the whole batch
// — the caller then falls back to JSON, which carries any string.
func EncodeReports(b *wire.Batch, reports []Report) error {
	for i := range reports {
		r := &reports[i]
		b.AddReport(r.Device, r.AtSeconds, r.Epoch, r.Seq)
		for _, br := range r.Beacons {
			id, err := ibeacon.ParseBeaconID(br.ID)
			if err != nil {
				return err
			}
			b.AddBeacon(wire.Beacon{ID: id, Distance: br.Distance, RSSI: br.RSSI})
		}
	}
	return nil
}

// pooledClient is the default client the nil-client paths share: one
// tuned http.Transport so every uplink and shard exchange rides a
// persistent connection instead of redialing. The stock
// DefaultTransport caps idle connections at 2 per host, which makes a
// fleet of concurrent device uplinks hammer the dialer; the ingest
// fan-in is exactly the many-clients-one-host shape that cap punishes.
// Per-attempt deadlines still come from the request context (see
// DoJSON), so no Client.Timeout here.
var pooledClient = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        1024,
	MaxIdleConnsPerHost: 256,
	IdleConnTimeout:     90 * time.Second,
}}

// PooledClient returns the shared keep-alive tuned HTTP client —
// callers that construct uplinks with an explicit client (cmd/loadgen,
// cmd/beacond) use it instead of per-uplink clients so the whole
// process shares one connection pool.
func PooledClient() *http.Client { return pooledClient }

// wireCount bumps the per-codec batch counter.
func wireCount(codec string) {
	if tm := pkgMet.Load(); tm != nil {
		switch codec {
		case "binary":
			tm.wireBinary.Inc()
		case "presplit":
			tm.wirePresplit.Inc()
		default:
			tm.wireJSON.Inc()
		}
	}
}

// noteDowngrade counts a sticky 415 JSON downgrade.
func noteDowngrade() {
	if tm := pkgMet.Load(); tm != nil {
		tm.wireDowngrades.Inc()
	}
}

// isUnsupportedMedia reports whether err is a 415 rejection — the
// negotiation signal that the target does not speak the binary codec.
func isUnsupportedMedia(err error) bool {
	code, ok := StatusCode(err)
	return ok && code == http.StatusUnsupportedMediaType
}

// BatchPath is the batch ingest route every server face shares.
const BatchPath = "/api/v1/observations:batch"

// wireHeader is the request header set of a plain binary upload.
var wireHeader = http.Header{"Content-Type": {wire.ContentType}}

// batchEndpoint is one server's batch route prepared under both codecs,
// on first use (the uplinks are configured by struct literal, so there
// is no constructor to do it in) and then for the uplink's lifetime.
type batchEndpoint struct {
	once       sync.Once
	wire, json Target
	err        error
}

func (e *batchEndpoint) prepare(base string) error {
	e.once.Do(func() {
		if e.wire, e.err = NewTarget(http.MethodPost, base+BatchPath, wireHeader); e.err == nil {
			e.json, e.err = NewTarget(http.MethodPost, base+BatchPath, nil)
		}
	})
	return e.err
}

// postWireBatch encodes reports as one binary frame and posts it. The
// frame buffer is pooled, and so is the one the ack is read into: the
// device side has no use for the rooms. The call never burns retry
// budget on a 415 — non-429 4xx are permanent, so a 415 comes back after
// exactly one attempt and the caller downgrades.
func postWireBatch(client *http.Client, t Target, reports []Report, policy RetryPolicy) error {
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := EncodeReports(b, reports); err != nil {
		return err
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = wire.AppendFrame(*buf, b)
	return postDiscard(client, t, *buf, policy)
}

// postDiscard posts body and drops the ack, read through a pooled
// buffer.
func postDiscard(client *http.Client, t Target, body []byte, policy RetryPolicy) error {
	ack := wire.GetBuf()
	defer wire.PutBuf(ack)
	_, err := t.Do(client, body, policy, ack)
	return err
}

// sendBatchBinary is the binary half of HTTPUplink.SendBatch: one
// frame to the batch endpoint, downgrading stickily on 415.
func (u *HTTPUplink) sendBatchBinary(reports []Report) error {
	if err := u.batch.prepare(u.BaseURL); err != nil {
		return err
	}
	err := postWireBatch(u.Client, u.batch.wire, reports, u.Retry)
	if err == nil {
		wireCount("binary")
		return nil
	}
	if isUnsupportedMedia(err) {
		// The server does not speak the codec and never will mid-run:
		// remember, resend as JSON now, and stop asking.
		u.jsonOnly.Store(true)
		noteDowngrade()
		return u.sendBatchJSON(reports)
	}
	return err
}

// sendBatchJSON is the historical JSON batch POST.
func (u *HTTPUplink) sendBatchJSON(reports []Report) error {
	if err := u.batch.prepare(u.BaseURL); err != nil {
		return err
	}
	return postJSONBatch(u.Client, u.batch.json, reports, u.Retry)
}

// postJSONBatch posts reports as the JSON array every server accepts.
func postJSONBatch(client *http.Client, t Target, reports []Report, policy RetryPolicy) error {
	body, err := json.Marshal(reports)
	if err != nil {
		return fmt.Errorf("transport: marshal batch: %w", err)
	}
	if err = postDiscard(client, t, body, policy); err == nil {
		wireCount("json")
	}
	return err
}

// ShardSplitter is the device-side half of the pre-split protocol: a
// batch-sending uplink that fetches the gateway's published ring
// (GET /api/v1/ring), reproduces its routing locally, and uploads each
// batch as per-shard binary sections so the gateway forwards frames
// instead of decoding and re-splitting. Against a server that
// publishes no ring (a single bms box, 404) it degrades to plain
// binary frames; against one that answers 415 it downgrades stickily
// to JSON. The ring view refreshes on a wall-clock interval, so a
// MarkDown or rebalance leaves at most a refresh window of stale
// pre-splits — which the gateway detects by digest and re-splits
// server-side (see fleet's pre-split forward path). Safe for
// concurrent use.
type ShardSplitter struct {
	// BaseURL is the gateway root, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// Client defaults to the shared pooled client when nil.
	Client *http.Client
	// Retry bounds retransmission of uploads and ring fetches.
	Retry RetryPolicy
	// Refresh is the ring re-fetch interval (default 2 s).
	Refresh time.Duration

	// batch is the gateway's batch route, plain; presplit is the same
	// route under the current ring digest, prepared whenever a refresh
	// brings a new one.
	batch batchEndpoint

	mu        sync.Mutex
	ring      *ring.Ring
	down      []bool
	presplit  Target
	fetchedAt time.Time
	jsonOnly  bool
}

// ringResponse is the GET /api/v1/ring payload (see fleet's handler).
type ringResponse struct {
	Digest   string   `json:"digest"`
	Replicas int      `json:"replicas"`
	Shards   []string `json:"shards"`
	Down     []bool   `json:"down"`
}

// Name implements Uplink.
func (s *ShardSplitter) Name() string { return "wifi-http-presplit" }

// Send implements Uplink via a one-report batch.
func (s *ShardSplitter) Send(r Report) error { return s.SendBatch([]Report{r}) }

// refreshInterval returns the effective ring re-fetch period.
func (s *ShardSplitter) refreshInterval() time.Duration {
	if s.Refresh > 0 {
		return s.Refresh
	}
	return 2 * time.Second
}

// ringView returns the current ring, down set and pre-split target (the
// batch route under the ring's digest), refreshing from the gateway when
// the view is older than the refresh interval. A fetch failure (or a 404
// from a non-gateway) leaves the splitter ringless until the next
// interval: uploads then go as plain binary frames, which every
// wire-speaking server ingests directly.
func (s *ShardSplitter) ringView() (*ring.Ring, []bool, Target) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.fetchedAt) >= s.refreshInterval() {
		s.fetchedAt = time.Now()
		s.ring, s.down = nil, nil
		var resp ringResponse
		payload, err := GetJSON(s.Client, s.BaseURL+"/api/v1/ring", s.Retry)
		if err == nil && json.Unmarshal(payload, &resp) == nil && len(resp.Shards) > 0 {
			if r, err := ring.New(resp.Shards, resp.Replicas); err == nil {
				hdr := http.Header{"Content-Type": {wire.ContentType}}
				hdr.Set(wire.HeaderRingDigest, resp.Digest)
				if s.presplit, err = NewTarget(http.MethodPost, s.BaseURL+BatchPath, hdr); err == nil {
					s.ring, s.down = r, resp.Down
				}
			}
		}
	}
	return s.ring, s.down, s.presplit
}

// SendBatch implements BatchSender: pre-split binary sections when the
// gateway publishes a ring, a plain binary frame when it does not, and
// sticky JSON after a 415.
func (s *ShardSplitter) SendBatch(reports []Report) error {
	if len(reports) == 0 {
		return nil
	}
	if err := s.batch.prepare(s.BaseURL); err != nil {
		return err
	}
	s.mu.Lock()
	jsonOnly := s.jsonOnly
	s.mu.Unlock()
	if jsonOnly {
		return postJSONBatch(s.Client, s.batch.json, reports, s.Retry)
	}
	r, down, presplit := s.ringView()
	var err error
	if r == nil {
		err = postWireBatch(s.Client, s.batch.wire, reports, s.Retry)
		if err == nil {
			wireCount("binary")
			return nil
		}
	} else {
		err = s.sendPresplit(r, down, presplit, reports)
		if err == nil {
			return nil
		}
	}
	if isUnsupportedMedia(err) {
		s.mu.Lock()
		s.jsonOnly = true
		s.mu.Unlock()
		noteDowngrade()
		return postJSONBatch(s.Client, s.batch.json, reports, s.Retry)
	}
	return err
}

// sendPresplit splits the batch by ring owner and uploads the sections
// to the digest-stamped target. Section order is shard-first-appearance,
// and each device's reports keep their order inside its section — the
// same stable split the gateway itself performs.
func (s *ShardSplitter) sendPresplit(r *ring.Ring, down []bool, t Target, reports []Report) error {
	members := r.Members()
	per := make([]*wire.Batch, members)
	order := make([]int, 0, members)
	defer func() {
		for _, b := range per {
			if b != nil {
				wire.PutBatch(b)
			}
		}
	}()
	for i := range reports {
		owner, err := r.Owner(reports[i].Device, down)
		if err != nil {
			return err
		}
		b := per[owner]
		if b == nil {
			b = wire.GetBatch()
			per[owner] = b
			order = append(order, owner)
		}
		if err := EncodeReports(b, reports[i:i+1]); err != nil {
			return err
		}
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	names := r.Names()
	for _, owner := range order {
		*buf = wire.AppendSection(*buf, names[owner])
		*buf = wire.AppendFrame(*buf, per[owner])
	}
	err := postDiscard(s.Client, t, *buf, s.Retry)
	if err == nil {
		wireCount("presplit")
	}
	return err
}

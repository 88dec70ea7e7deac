package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/bms"
	"occusim/internal/occupancy"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// HTTPShard drives one remote bms.Server over its REST API — the shard
// client real deployments put behind the gateway. Reports travel as wire
// frames over upgraded streams (transport.Stream) and in no other form; every
// other exchange is one call, a JSON exchange through transport whose
// bodies are bms's control schema. Both run under one retry policy, so
// shard traffic gets the same capped-backoff behaviour as device uplinks;
// health probes are deliberately one-shot so a dead shard is detected on
// the first probe rather than after a retry budget.
type HTTPShard struct {
	base   string
	client *http.Client
	retry  transport.RetryPolicy

	// stamped is what every exchange is sent under: the gateway
	// leadership epoch (see Shard.StampEpoch) as the stream envelope
	// carries it and as the X-Gateway-Epoch header set of every call.
	// Built at construction and again on each StampEpoch — a lease
	// change, not a request — so no exchange builds a header.
	stamped atomic.Pointer[stampedWrites]

	// streams carries every wire frame to the shard.
	streams *transport.Stream

	// ackMu guards rooms, which canonicalises the room names the shard's
	// wire acks repeat.
	ackMu sync.Mutex
	rooms wire.Interner
}

// stampedWrites is one leadership epoch's prepared stamp.
type stampedWrites struct {
	epoch uint64
	json  http.Header
}

// NewHTTPShard points a shard client at a bms server root, e.g.
// "http://10.0.0.7:8080". A nil client gets transport's default
// timeout; retry bounds retransmission of ingest and read calls.
func NewHTTPShard(baseURL string, client *http.Client, retry transport.RetryPolicy) (*HTTPShard, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("fleet: http shard needs a base URL")
	}
	streams, err := transport.NewStream(baseURL, wire.StreamPath, wire.StreamProtocol, client)
	if err != nil {
		return nil, fmt.Errorf("fleet: http shard: %w", err)
	}
	h := &HTTPShard{base: baseURL, client: client, retry: retry, streams: streams, rooms: wire.Interner{}}
	h.StampEpoch(0)
	return h, nil
}

// Name implements Shard: the base URL is the stable ring identity.
func (h *HTTPShard) Name() string { return h.base }

// StampEpoch implements Shard: the stamp when one is set, no extra header
// for unfenced clients.
func (h *HTTPShard) StampEpoch(epoch uint64) {
	w := &stampedWrites{epoch: epoch, json: http.Header{"Content-Type": {"application/json"}}}
	if epoch != 0 {
		w.json.Set(transport.HeaderGatewayEpoch, strconv.FormatUint(epoch, 10))
	}
	h.stamped.Store(w)
}

// call is the one JSON exchange of every shard verb but the report path.
// It marshals in as the body (nil sends none) and sends it under policy
// with one header set, which always carries the leadership stamp; the
// shard reads the stamp only on fenced writes. A 409 with lease headers
// reads as the *transport.StaleLeaderError the in-process arbiter returns.
// A 2xx body is decoded into out (nil discards it), and a body that does
// not decode is the shard's protocol fault.
func (h *HTTPShard) call(method, path string, in, out any, policy transport.RetryPolicy) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("fleet: marshal %s: %w", path, err)
		}
	}
	payload, err := transport.DoJSONHeaders(h.client, method, h.base+path, body, h.stamped.Load().json, policy)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("%w: decode %s: %v", ErrShardMisbehaved, path, err)
	}
	return nil
}

// IngestFrame implements Shard: it sends one wire frame — the
// pre-split forward path's verbatim device bytes, or the frame the
// gateway's split cut — over a shard stream under the leadership stamp,
// and decodes the ack — the run-length rooms column of wire.AppendRooms
// — into interned strings; only the rooms slice itself is allocated. The
// exchange runs under the retry policy as a POST did (Stream.Exchange). A
// reply that is not one, or a shard that refuses the upgrade, is the
// shard misbehaving.
func (h *HTTPShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	var rooms []string
	err := h.streams.Exchange(h.stamped.Load().epoch, frame, h.retry, func(ack []byte) error {
		rd := wire.Reader{Buf: ack}
		h.ackMu.Lock()
		rooms = rd.Rooms(reports, make([]string, 0, reports), h.rooms)
		h.ackMu.Unlock()
		if rd.Short || len(rooms) != reports {
			return fmt.Errorf("malformed rooms ack for %d reports", reports)
		}
		return nil
	})
	if errors.Is(err, transport.ErrBadReply) || errors.Is(err, transport.ErrUpgradeRefused) {
		return nil, fmt.Errorf("%w: shard %s: %v", ErrShardMisbehaved, h.base, err)
	}
	if err != nil {
		return nil, err
	}
	return rooms, nil
}

// InstallModel implements Shard via PUT /api/v1/model.
func (h *HTTPShard) InstallModel(snap bms.ModelSnapshot) error {
	return h.call(http.MethodPut, "/api/v1/model", snap, nil, h.retry)
}

// Events implements Shard.
func (h *HTTPShard) Events() ([]occupancy.Event, error) {
	var reply bms.EventsReply
	if err := h.call(http.MethodGet, "/api/v1/events", nil, &reply, h.retry); err != nil {
		return nil, err
	}
	out := make([]occupancy.Event, len(reply.Events))
	for k, e := range reply.Events {
		var err error
		if out[k], err = e.Event(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShardMisbehaved, err)
		}
	}
	return out, nil
}

// Summary implements Shard via the shard-internal bms.ShardRollupPath:
// one exchange whose reply carries dwell as integer nanoseconds — the
// only form dwell crosses this leg in — so nothing is rounded on the way
// to the gateway's sum.
func (h *HTTPShard) Summary() (occupancy.Summary, error) {
	var reply bms.ShardRollup
	if err := h.call(http.MethodGet, bms.ShardRollupPath, nil, &reply, h.retry); err != nil {
		return occupancy.Summary{}, err
	}
	return reply.Summary(), nil
}

// EvictDevice implements Shard via POST /api/v1/devices:evict. A 404 —
// the shard holds no state for the device — is (zero, false, nil), not
// an error: rebalance treats it as nothing to migrate. Note the retry
// caveat: if the first attempt's response is lost after the server
// evicted, the retried POST answers 404 and the state is dropped
// rather than migrated — the new owner then rebuilds from the stream,
// which is the same degraded path as an unreachable old owner.
func (h *HTTPShard) EvictDevice(device string) (bms.DeviceState, bool, error) {
	var st bms.DeviceState
	if err := h.call(http.MethodPost, "/api/v1/devices:evict", bms.EvictRequest{Device: device}, &st, h.retry); err != nil {
		if transport.Classify(err).Code == http.StatusNotFound {
			err = nil
		}
		return bms.DeviceState{}, false, err
	}
	return st, true, nil
}

// InstallDevice implements Shard via POST /api/v1/devices:install.
// Installing the same state twice is idempotent, so the retrying
// transport is safe here.
func (h *HTTPShard) InstallDevice(st bms.DeviceState) error {
	return h.call(http.MethodPost, "/api/v1/devices:install", st, nil, h.retry)
}

// ExpireBefore implements Shard via POST /api/v1/devices:expire.
func (h *HTTPShard) ExpireBefore(cutoff time.Duration) ([]string, error) {
	var reply bms.ExpireReply
	err := h.call(http.MethodPost, "/api/v1/devices:expire", bms.ExpireRequest{BeforeNanos: int64(cutoff)}, &reply, h.retry)
	return reply.Expired, err
}

// Devices implements Shard via GET /api/v1/devices.
func (h *HTTPShard) Devices() ([]string, error) {
	var reply bms.DevicesReply
	err := h.call(http.MethodGet, "/api/v1/devices", nil, &reply, h.retry)
	return reply.Devices, err
}

// Health implements Shard with a one-shot probe (no retries): routing
// should notice a dead shard on the first check, not mask it behind a
// backoff budget.
func (h *HTTPShard) Health() error {
	return h.call(http.MethodGet, "/api/v1/health", nil, nil, transport.RetryPolicy{})
}

// Claim implements Shard via POST /api/v1/lease:claim. A 409 — the
// epoch was outbid — returns the winning grant alongside the typed
// stale-leader error, matching the in-process arbiter.
func (h *HTTPShard) Claim(epoch uint64, leader string) (uint64, string, error) {
	var grant bms.LeaseGrant
	err := h.call(http.MethodPost, "/api/v1/lease:claim", bms.LeaseClaim{Epoch: epoch, Leader: leader}, &grant, h.retry)
	var stale *transport.StaleLeaderError
	if errors.As(err, &stale) {
		return stale.Granted, stale.Leader, stale
	}
	if err != nil {
		return 0, "", err
	}
	return grant.Granted, grant.Holder, nil
}

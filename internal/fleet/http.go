package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/bms"
	"occusim/internal/occupancy"
	"occusim/internal/overload"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// HTTPShard drives one remote bms.Server over its REST API — the shard
// client real deployments put behind the gateway. Reports travel as wire
// frames over upgraded streams (stream.go) and in no other form; every
// other exchange goes through transport's retrying JSON helpers. Both
// run under one retry policy, so shard traffic gets the same
// capped-backoff behaviour as device uplinks; health probes are
// deliberately one-shot so a dead shard is detected on the first probe
// rather than after a retry budget.
type HTTPShard struct {
	base   string
	client *http.Client
	retry  transport.RetryPolicy

	// stamped is what every write is sent under: the gateway leadership
	// epoch (see Shard.StampEpoch) as the stream envelope carries it and
	// as the JSON writes' X-Gateway-Epoch header set. Built at
	// construction and again on each StampEpoch — a lease change, not a
	// request — so the ingest path builds no header.
	stamped atomic.Pointer[stampedWrites]

	// streams carries every wire frame to the shard (stream.go);
	// streamURL is where one is dialled.
	streams   streamPool
	streamURL string

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
	streamURL := baseURL + wire.StreamPath
	if _, err := url.Parse(streamURL); err != nil {
		return nil, fmt.Errorf("fleet: http shard: %w", err)
	}
	h := &HTTPShard{base: baseURL, client: client, retry: retry, streamURL: streamURL, rooms: wire.Interner{}}
	h.StampEpoch(0)
	return h, nil
}

// Name implements Shard: the base URL is the stable ring identity.
func (h *HTTPShard) Name() string { return h.base }

// SetCodec does nothing: the leg has one form, a wire frame on the
// stream. It is kept for callers this repository cannot edit yet and is
// to be deleted with them (ROADMAP item 3).
func (h *HTTPShard) SetCodec(transport.Codec) {}

// StampEpoch implements Shard: the stamp when one is set, no extra header
// for unfenced clients.
func (h *HTTPShard) StampEpoch(epoch uint64) {
	w := &stampedWrites{epoch: epoch, json: http.Header{"Content-Type": {"application/json"}}}
	if epoch != 0 {
		w.json.Set(transport.HeaderGatewayEpoch, strconv.FormatUint(epoch, 10))
	}
	h.stamped.Store(w)
}

// postWrite posts a fenced write: the leadership stamp rides the
// request headers, and a 409 stale-leader answer comes back as the
// same typed error the in-process arbiter returns.
func (h *HTTPShard) postWrite(path string, body []byte) ([]byte, error) {
	payload, err := transport.DoJSONHeaders(h.client, http.MethodPost, h.base+path, body, h.stamped.Load().json, h.retry)
	if err != nil {
		return nil, staleLeaderFrom(err)
	}
	return payload, nil
}

// staleLeaderFrom converts a 409 carrying lease headers into
// *bms.StaleLeaderError, so gateway logic handles a remote rejection
// and an in-process one identically. Any other error passes through.
func staleLeaderFrom(err error) error {
	if code, ok := transport.StatusCode(err); ok && code == http.StatusConflict {
		if granted, ok := transport.LeaderEpoch(err); ok {
			hint, _ := transport.LeaderHint(err)
			return &bms.StaleLeaderError{Granted: granted, Leader: hint}
		}
	}
	return err
}

// IngestBatch implements Shard: the reports as one frame over the
// stream (see Shard.IngestBatch).
func (h *HTTPShard) IngestBatch(reports []transport.Report) ([]string, error) {
	return ingestAsFrame(h, reports)
}

// IngestFrame implements FrameIngester: it sends one wire frame — the
// pre-split forward path's verbatim device bytes, or the frame the
// gateway's split cut — over a shard stream under the leadership stamp,
// and decodes the ack — the run-length rooms column of wire.AppendRooms
// — into interned strings; only the rooms slice itself is allocated. The
// exchange runs under the retry policy as a POST did: a shed admission
// waits out the shard's hint, a connection that failed backs off, and
// anything the shard answered on purpose — a fence, a rejection, a reply
// that is not one — is final.
func (h *HTTPShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	epoch := h.stamped.Load().epoch
	for backoff := h.retry.Start(); ; {
		rooms, err := h.exchange(epoch, frame, reports)
		if err == nil {
			return rooms, nil
		}
		hint, shed := overload.IsOverload(err)
		var down *url.Error
		if !shed && !errors.As(err, &down) {
			return nil, err
		}
		if err = backoff.Wait(err, hint, shed); err != nil {
			return nil, err
		}
	}
}

// InstallModel implements Shard via PUT /api/v1/model.
func (h *HTTPShard) InstallModel(snap bms.ModelSnapshot) error {
	body, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("fleet: marshal model snapshot: %w", err)
	}
	_, err = transport.DoJSON(h.client, http.MethodPut, h.base+"/api/v1/model", body, h.retry)
	return err
}

// Events implements Shard.
func (h *HTTPShard) Events() ([]occupancy.Event, error) {
	payload, err := transport.GetJSON(h.client, h.base+"/api/v1/events", h.retry)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Events []bms.EventJSON `json:"events"`
	}
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("fleet: decode events: %w", err)
	}
	out := make([]occupancy.Event, 0, len(resp.Events))
	for _, e := range resp.Events {
		var kind occupancy.EventKind
		switch e.Kind {
		case "enter":
			kind = occupancy.Enter
		case "exit":
			kind = occupancy.Exit
		default:
			return nil, fmt.Errorf("fleet: unknown event kind %q", e.Kind)
		}
		out = append(out, occupancy.Event{
			// Round, don't truncate: the wire carries float seconds, and
			// the federated merge sorts on exact nanosecond times — a 1 ns
			// truncation error would reorder events relative to the shard.
			At:     time.Duration(math.Round(e.AtSeconds * float64(time.Second))),
			Device: e.Device,
			Kind:   kind,
			Room:   e.Room,
		})
	}
	return out, nil
}

// Summary implements Shard via the shard-internal bms.ShardRollupPath:
// one exchange whose reply carries dwell as integer nanoseconds — the
// only form dwell crosses this leg in — so nothing is rounded on the way
// to the gateway's sum.
func (h *HTTPShard) Summary() (occupancy.Summary, error) {
	payload, err := transport.GetJSON(h.client, h.base+bms.ShardRollupPath, h.retry)
	if err != nil {
		return occupancy.Summary{}, err
	}
	var reply bms.ShardRollup
	if err := json.Unmarshal(payload, &reply); err != nil {
		return occupancy.Summary{}, fmt.Errorf("fleet: decode rollup: %w", err)
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
	body, err := json.Marshal(map[string]string{"device": device})
	if err != nil {
		return bms.DeviceState{}, false, fmt.Errorf("fleet: marshal evict: %w", err)
	}
	payload, err := h.postWrite("/api/v1/devices:evict", body)
	if err != nil {
		if code, ok := transport.StatusCode(err); ok && code == http.StatusNotFound {
			return bms.DeviceState{}, false, nil
		}
		return bms.DeviceState{}, false, err
	}
	var st bms.DeviceState
	if err := json.Unmarshal(payload, &st); err != nil {
		return bms.DeviceState{}, false, fmt.Errorf("%w: decode device state: %v", ErrShardMisbehaved, err)
	}
	return st, true, nil
}

// InstallDevice implements Shard via POST /api/v1/devices:install.
// Installing the same state twice is idempotent, so the retrying
// transport is safe here.
func (h *HTTPShard) InstallDevice(st bms.DeviceState) error {
	body, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("fleet: marshal device state: %w", err)
	}
	_, err = h.postWrite("/api/v1/devices:install", body)
	return err
}

// ExpireBefore implements Shard via POST /api/v1/devices:expire.
func (h *HTTPShard) ExpireBefore(cutoff time.Duration) ([]string, error) {
	body, err := json.Marshal(map[string]int64{"beforeNanos": int64(cutoff)})
	if err != nil {
		return nil, fmt.Errorf("fleet: marshal expire: %w", err)
	}
	payload, err := h.postWrite("/api/v1/devices:expire", body)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Expired []string `json:"expired"`
	}
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("%w: decode expire response: %v", ErrShardMisbehaved, err)
	}
	return resp.Expired, nil
}

// Devices implements Shard via GET /api/v1/devices.
func (h *HTTPShard) Devices() ([]string, error) {
	payload, err := transport.GetJSON(h.client, h.base+"/api/v1/devices", h.retry)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Devices []string `json:"devices"`
	}
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("%w: decode devices: %v", ErrShardMisbehaved, err)
	}
	return resp.Devices, nil
}

// Health implements Shard with a one-shot probe (no retries): routing
// should notice a dead shard on the first check, not mask it behind a
// backoff budget.
func (h *HTTPShard) Health() error {
	_, err := transport.GetJSON(h.client, h.base+"/api/v1/health", transport.RetryPolicy{})
	return err
}

// Claim implements Shard via POST /api/v1/lease:claim. A 409 — the
// epoch was outbid — returns the winning grant alongside the typed
// stale-leader error, matching the in-process arbiter.
func (h *HTTPShard) Claim(epoch uint64, leader string) (uint64, string, error) {
	body, err := json.Marshal(map[string]any{"epoch": epoch, "leader": leader})
	if err != nil {
		return 0, "", fmt.Errorf("fleet: marshal lease claim: %w", err)
	}
	payload, err := transport.PostJSON(h.client, h.base+"/api/v1/lease:claim", body, h.retry)
	if err != nil {
		if stale := staleLeaderFrom(err); stale != err {
			se := stale.(*bms.StaleLeaderError)
			return se.Granted, se.Leader, se
		}
		return 0, "", err
	}
	var resp struct {
		Granted uint64 `json:"granted"`
		Holder  string `json:"holder"`
	}
	if err := json.Unmarshal(payload, &resp); err != nil {
		return 0, "", fmt.Errorf("%w: decode lease grant: %v", ErrShardMisbehaved, err)
	}
	return resp.Granted, resp.Holder, nil
}

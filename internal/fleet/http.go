package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/bms"
	"occusim/internal/occupancy"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// HTTPShard drives one remote bms.Server — the shard client real
// deployments put behind the gateway. Every verb but Health is one
// exchange on the shard's upgraded streams (transport.Stream), under one
// retry policy, so shard traffic gets the same capped-backoff behaviour
// as device uplinks.
type HTTPShard struct {
	base   string
	client *http.Client
	retry  transport.RetryPolicy

	// epoch is the leadership stamp (Shard.StampEpoch) of the fenced
	// exchanges: frames, evicts, installs, sweeps.
	epoch atomic.Uint64

	// streams carries every exchange to the shard.
	streams *transport.Stream

	// ackMu guards rooms, which canonicalises the room names the shard's
	// wire acks repeat.
	ackMu sync.Mutex
	rooms wire.Interner
}

// NewHTTPShard points a shard client at a bms server root, e.g.
// "http://10.0.0.7:8080". A nil client gets transport's default
// timeout; retry bounds retransmission of every exchange but Health.
func NewHTTPShard(baseURL string, client *http.Client, retry transport.RetryPolicy) (*HTTPShard, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("fleet: http shard needs a base URL")
	}
	streams, err := transport.NewStream(baseURL, wire.StreamPath, wire.StreamProtocol, client)
	if err != nil {
		return nil, fmt.Errorf("fleet: http shard: %w", err)
	}
	return &HTTPShard{base: baseURL, client: client, retry: retry, streams: streams, rooms: wire.Interner{}}, nil
}

// Name implements Shard: the base URL is the stable ring identity.
func (h *HTTPShard) Name() string { return h.base }

// StampEpoch implements Shard.
func (h *HTTPShard) StampEpoch(epoch uint64) { h.epoch.Store(epoch) }

// IngestFrame implements Shard: one wire frame — a pre-split device's
// bytes, or the frame the gateway's split cut — under the leadership
// stamp, its ack (wire.AppendRooms) decoded into interned strings; only
// the rooms slice itself is allocated.
func (h *HTTPShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	var rooms []string
	err := h.exchange(wire.StreamFrame, h.epoch.Load(), frame, func(ack []byte) error {
		rd := wire.Reader{Buf: ack}
		h.ackMu.Lock()
		rooms = rd.Rooms(reports, make([]string, 0, reports), h.rooms)
		h.ackMu.Unlock()
		if rd.Short || len(rooms) != reports {
			return fmt.Errorf("malformed rooms ack for %d reports", reports)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rooms, nil
}

// exchange is one request of kind on the shard's streams under the retry
// policy. A reply that is not one, or a shard that refuses the upgrade,
// is the shard misbehaving.
func (h *HTTPShard) exchange(kind byte, stamp uint64, body []byte, ack func([]byte) error) error {
	err := h.streams.Exchange(kind, stamp, body, h.retry, ack)
	if errors.Is(err, transport.ErrBadReply) || errors.Is(err, transport.ErrUpgradeRefused) {
		return fmt.Errorf("%w: shard %s: %v", ErrShardMisbehaved, h.base, err)
	}
	return err
}

// exchangeJSON is one exchange of kind whose body is v's JSON and whose
// ok reply is empty.
func (h *HTTPShard) exchangeJSON(kind byte, stamp uint64, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("fleet: marshal request kind 0x%02x: %w", kind, err)
	}
	return h.exchange(kind, stamp, body, emptyReply)
}

// emptyReply is the ack of a verb whose ok reply carries nothing: a body
// is out of protocol.
func emptyReply(reply []byte) error {
	if len(reply) > 0 {
		return fmt.Errorf("ok reply carries a %d-byte body, want none", len(reply))
	}
	return nil
}

// jsonReply is an ack that decodes an ok reply's JSON into v.
func jsonReply(v any) func([]byte) error {
	return func(body []byte) error { return json.Unmarshal(body, v) }
}

// InstallModel implements Shard: the snapshot's JSON, unfenced.
func (h *HTTPShard) InstallModel(snap bms.ModelSnapshot) error {
	return h.exchangeJSON(wire.StreamModel, 0, snap)
}

// Events implements Shard with one unfenced events read, answered with
// the shard's bms.EventsReply.
func (h *HTTPShard) Events() ([]occupancy.Event, error) {
	var reply bms.EventsReply
	if err := h.exchange(wire.StreamEvents, 0, nil, jsonReply(&reply)); err != nil {
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

// Summary implements Shard with one unfenced rollup read on the shard's
// streams, answered with the shard's summary in binary (bms.ParseSummary
// reads it): dwell crosses as integer nanoseconds, so nothing is rounded
// on the way to the gateway's sum.
func (h *HTTPShard) Summary() (sum occupancy.Summary, err error) {
	err = h.exchange(wire.StreamRollup, 0, nil, func(body []byte) (err error) {
		sum, err = bms.ParseSummary(body)
		return err
	})
	return sum, err
}

// ExportDevice implements Shard with one unfenced export: the shard's
// DeviceState JSON, or an empty reply — the shard holds no state for the
// device — as (zero, false, nil). It changes nothing, so a retry reads
// the same state.
func (h *HTTPShard) ExportDevice(device string) (st bms.DeviceState, held bool, err error) {
	err = h.exchange(wire.StreamExport, 0, []byte(device), func(reply []byte) error {
		if held = len(reply) > 0; !held {
			return nil
		}
		return jsonReply(&st)(reply)
	})
	if err != nil {
		return bms.DeviceState{}, false, err
	}
	return st, held, nil
}

// EvictDevice implements Shard under the leadership stamp. The ok reply
// is empty, so a retry — the first reply lost, or the first attempt
// timed out while the shard committed — finds nothing held and answers
// the same.
func (h *HTTPShard) EvictDevice(device string) error {
	return h.exchange(wire.StreamEvict, h.epoch.Load(), []byte(device), emptyReply)
}

// InstallDevice implements Shard under the leadership stamp. Installing
// the same state twice is idempotent, so the retry policy is safe here.
func (h *HTTPShard) InstallDevice(st bms.DeviceState) error {
	return h.exchangeJSON(wire.StreamInstall, h.epoch.Load(), st)
}

// ExpireBefore implements Shard under the leadership stamp: the cutoff's
// nanoseconds out, the expired devices back.
func (h *HTTPShard) ExpireBefore(cutoff time.Duration) (expired []string, err error) {
	err = h.exchange(wire.StreamExpire, h.epoch.Load(), binary.LittleEndian.AppendUint64(nil, uint64(cutoff)), nameList(&expired))
	return expired, err
}

// Devices implements Shard with one unfenced registry read.
func (h *HTTPShard) Devices() (devices []string, err error) {
	err = h.exchange(wire.StreamDevices, 0, nil, nameList(&devices))
	return devices, err
}

// nameList is an ack that reads a list of device names, written in the
// rooms column's form (wire.AppendRooms), into *names.
func nameList(names *[]string) func([]byte) error {
	return func(reply []byte) error {
		rd := wire.Reader{Buf: reply}
		if *names = rd.Rooms(len(reply), nil, wire.Interner{}); rd.Short {
			return errors.New("malformed name list")
		}
		return nil
	}
}

// Health implements Shard with a one-shot GET /api/v1/health (no
// retries): routing should notice a dead shard on the first check, not
// mask it behind a backoff budget.
func (h *HTTPShard) Health() error {
	_, err := transport.GetJSON(h.client, h.base+"/api/v1/health", transport.RetryPolicy{})
	return err
}

// Claim implements Shard with one unfenced claim. An outbid claim
// returns the winning grant alongside the typed stale-leader error,
// matching the in-process arbiter.
func (h *HTTPShard) Claim(epoch uint64, leader string) (granted uint64, holder string, err error) {
	body := append(binary.AppendUvarint(nil, epoch), leader...)
	err = h.exchange(wire.StreamClaim, 0, body, func(reply []byte) error {
		rd := wire.Reader{Buf: reply}
		if granted = rd.Uvarint(); rd.Short {
			return errors.New("lease grant without epoch")
		}
		holder = string(rd.Buf)
		return nil
	})
	var stale *transport.StaleLeaderError
	if errors.As(err, &stale) {
		return stale.Granted, stale.Leader, stale
	}
	if err != nil {
		return 0, "", err
	}
	return granted, holder, nil
}

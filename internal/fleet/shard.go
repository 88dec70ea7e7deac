package fleet

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// Shard is one BMS ingest server as the gateway sees it: the report
// path, the model-distribution path, and the two reads the federation
// layer merges — the event history and the summary every other view is
// rendered from —, migration, the sweep and the lease. LocalShard wraps
// an in-process bms.Server; HTTPShard drives a remote one on its stream.
type Shard interface {
	// Name identifies the shard; it seeds the shard's virtual nodes on
	// the hash ring, so it must be unique and stable across restarts.
	Name() string
	// IngestFrame is the report path: the gateway delivers a shard its
	// share of every upload as one wire frame carrying the given report
	// count — the bytes a pre-splitting device encoded, or the frame the
	// gateway's own split cut — and takes back the predicted room per
	// report in frame order.
	IngestFrame(frame []byte, reports int) ([]string, error)
	// IngestBatch is IngestFrame on the reports rendered into one frame.
	// The system never calls it; it is declared for the frozen
	// instrument only (frozen.go).
	IngestBatch([]transport.Report) ([]string, error)
	// InstallModel switches the shard to a distributed model snapshot.
	InstallModel(bms.ModelSnapshot) error
	// Events returns the shard's committed enter/exit events in
	// nondecreasing time order.
	Events() ([]occupancy.Event, error)
	// Summary returns the shard's state in one read — device rooms,
	// event count, per-room head counts, transition tallies and dwell —
	// sized by its current state, not its history. The gateway renders
	// occupancy, dwell and the rollup from the merge of these.
	Summary() (occupancy.Summary, error)
	// ExportDevice copies the shard's migratable state for the device
	// without removing it (ok=false when the shard holds none) — the
	// first step of a rebalance move.
	ExportDevice(device string) (st bms.DeviceState, ok bool, err error)
	// InstallDevice installs a migrated device's state, overwriting any
	// stale copy the shard holds — a move's second step, on the new
	// owner.
	InstallDevice(bms.DeviceState) error
	// EvictDevice removes the shard's migratable state for the device —
	// a move's last step, once the new owner holds the copy. Evicting a
	// device the shard does not hold is a no-op, so a retry is one.
	EvictDevice(device string) error
	// ExpireBefore evicts devices last observed before cutoff (on the
	// reports' own clock) and returns their names — the TTL sweep.
	ExpireBefore(cutoff time.Duration) ([]string, error)
	// Devices returns every device the shard knows (tracked or marked),
	// sorted — the source a restarted gateway rebuilds its migration
	// registry from (see Gateway.RebuildRegistry).
	Devices() ([]string, error)
	// Health reports whether the shard can take traffic.
	Health() error
	// Claim asks the shard — the lease arbiter — to grant gateway
	// leadership at epoch to the gateway advertised at leader. It
	// returns the shard's current grant (epoch and holder); err is a
	// *transport.StaleLeaderError (errors.Is transport.ErrStaleLeader)
	// when the epoch was outbid. A gateway leads once a majority of
	// shards grant the same epoch; see LeaseController.
	Claim(epoch uint64, leader string) (granted uint64, holder string, err error)
	// StampEpoch sets the gateway leadership epoch this client stamps
	// onto every subsequent write (ingest, migration, expiry). Zero —
	// the default — sends unfenced writes; a nonzero stamp below a
	// shard's grant is rejected with transport.ErrStaleLeader. Each
	// gateway must own its shard clients: the stamp is the client's
	// identity in the fencing protocol, not shared routing state.
	StampEpoch(epoch uint64)
}

// LocalShard adapts an in-process bms.Server to the Shard interface —
// the shard pool tests and single-machine fleets run on.
type LocalShard struct {
	name string
	srv  *bms.Server

	// epoch is the gateway leadership stamp on this client's writes;
	// see Shard.StampEpoch.
	epoch atomic.Uint64
}

// NewLocalShard wraps srv under the given ring name.
func NewLocalShard(name string, srv *bms.Server) (*LocalShard, error) {
	if name == "" || srv == nil {
		return nil, fmt.Errorf("fleet: local shard needs a name and a server")
	}
	return &LocalShard{name: name, srv: srv}, nil
}

// Name implements Shard.
func (l *LocalShard) Name() string { return l.name }

// IngestFrame implements Shard: the server decodes the frame
// and runs its binary ingest path under the stamped epoch — the
// in-process analogue of a shard receiving the bytes over its stream (a
// durable server logs them as received).
func (l *LocalShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	return l.srv.IngestWireFrameFenced(l.epoch.Load(), frame)
}

// InstallModel implements Shard.
func (l *LocalShard) InstallModel(snap bms.ModelSnapshot) error {
	_, err := l.srv.InstallModel(snap)
	return err
}

// Events implements Shard.
func (l *LocalShard) Events() ([]occupancy.Event, error) { return l.srv.Events(), nil }

// Summary implements Shard.
func (l *LocalShard) Summary() (occupancy.Summary, error) { return l.srv.Summary(), nil }

// ExportDevice implements Shard.
func (l *LocalShard) ExportDevice(device string) (bms.DeviceState, bool, error) {
	st, ok := l.srv.ExportDevice(device)
	return st, ok, nil
}

// EvictDevice implements Shard.
func (l *LocalShard) EvictDevice(device string) error {
	return l.srv.EvictDevice(l.epoch.Load(), device)
}

// InstallDevice implements Shard.
func (l *LocalShard) InstallDevice(st bms.DeviceState) error {
	return l.srv.InstallDevice(l.epoch.Load(), st)
}

// ExpireBefore implements Shard.
func (l *LocalShard) ExpireBefore(cutoff time.Duration) ([]string, error) {
	return l.srv.ExpireBefore(l.epoch.Load(), cutoff)
}

// Devices implements Shard.
func (l *LocalShard) Devices() ([]string, error) {
	return l.srv.KnownDevices(), nil
}

// Health implements Shard: an in-process server is always reachable,
// and down once its log has stopped.
func (l *LocalShard) Health() error { return l.srv.LogErr() }

// Claim implements Shard against the in-process lease arbiter.
func (l *LocalShard) Claim(epoch uint64, leader string) (uint64, string, error) {
	return l.srv.GrantLease(epoch, leader)
}

// StampEpoch implements Shard.
func (l *LocalShard) StampEpoch(epoch uint64) { l.epoch.Store(epoch) }

// LocalPool is a set of in-process shards with the servers behind them
// exposed for training, telemetry and drain wiring: Shards[i] wraps
// Servers[i].
type LocalPool struct {
	Shards  []Shard
	Servers []*bms.Server
}

// OpenLocalPool builds n in-process shards over servers of one floor
// plan — the substrate for tests, internal/scenario and bmsd. Shard names
// are "shard-0" … "shard-<n-1>"; the name is ring identity, so every
// consumer must construct pools through here. With a data directory every
// server opens a WAL under dataDir/shard-<i>/ with the given sync policy,
// and recovery is implicit: a pool opened over a directory a previous
// (possibly killed) pool wrote replays each shard back to its pre-crash
// state. Without one the servers are volatile and policy is unused. Close
// the pool (or each server) to drain through a final compaction.
func OpenLocalPool(b *building.Building, n, debounce, retain int, dataDir string, policy store.FsyncPolicy) (*LocalPool, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: pool needs at least 1 shard, got %d", n)
	}
	pool := &LocalPool{Shards: make([]Shard, n), Servers: make([]*bms.Server, n)}
	for i := 0; i < n; i++ {
		st, err := store.New(retain)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("shard-%d", i)
		var srv *bms.Server
		if dataDir == "" {
			srv, err = bms.NewServer(b, st, debounce)
		} else {
			srv, err = bms.OpenDurableServer(b, st, debounce, bms.DurableConfig{
				Dir:    filepath.Join(dataDir, name),
				Policy: policy,
			})
		}
		if err != nil {
			pool.Close()
			return nil, fmt.Errorf("fleet: open shard %s: %w", name, err)
		}
		ls, err := NewLocalShard(name, srv)
		if err != nil {
			pool.Close()
			return nil, err
		}
		pool.Shards[i] = ls
		pool.Servers[i] = srv
	}
	return pool, nil
}

// Close drains every server in the pool: each takes a final snapshot
// and reclaims the log behind it (volatile servers no-op). Errors are joined;
// all servers are attempted regardless.
func (p *LocalPool) Close() error {
	var errs []error
	for _, srv := range p.Servers {
		if srv == nil {
			continue
		}
		if err := srv.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// GatewayUplink adapts a Gateway to transport.Uplink and
// transport.BatchSender, so device-side batching uplinks can stream
// into a fleet exactly as they stream into a single bms.Server via
// bms.DirectUplink.
type GatewayUplink struct{ Gateway *Gateway }

// Name implements transport.Uplink.
func (u GatewayUplink) Name() string { return "fleet-gateway" }

// Send implements transport.Uplink.
func (u GatewayUplink) Send(r transport.Report) error {
	_, err := u.Gateway.Ingest(r)
	return err
}

// SendBatch implements transport.BatchSender.
func (u GatewayUplink) SendBatch(reports []transport.Report) error {
	_, err := u.Gateway.IngestBatch(reports)
	return err
}

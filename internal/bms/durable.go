// Durability: the BMS side of the write-ahead log. The store's WAL
// carries opaque payloads; this file defines what those payloads are —
// the received wire payload plus a rooms suffix for observation batches
// (the hot path), JSON records for device installs/evicts, TTL
// expiries, model snapshots, fingerprints and lease grants — and the one
// way each of them becomes state.
//
// Every durable mutation is a record that goes through one commit:
// fence (admitEpoch), then log, then apply — the last two under one WAL
// guard, so a compaction's cut falls before a record or after its
// effect. A record the log refuses applies nothing. Recovery runs the
// same apply on each record, whether it replays from the log (recover)
// or restores from a snapshot (snapshot.go), so a recovered server is
// the live one by construction, not by a second copy of each mutation
// kept in step with the first.
//
// Replay is idempotent because observation records ride the same (Epoch,
// Seq) freshness marks as live ingest: records the pre-crash process had
// already committed replay as duplicates of themselves in per-device
// order. They carry the room predicted at ingest time, so replay never
// re-predicts and reproduces the tracker even if the model changed
// between the observation and the crash.
package bms

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"occusim/internal/building"
	"occusim/internal/classify"
	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// DefaultCompactThreshold is the least log growth since the last cut
// that triggers a background compaction under the default configuration
// (see durability.threshold). It bounds what a restart replays, which
// costs by the report, so it is sized in reports: some 32,000 of the
// paper's six-beacon reports at the ≈ 131 bytes the record form takes
// for each.
const DefaultCompactThreshold = 4 << 20

// durability is the WAL attachment of a durable Server.
type durability struct {
	wal *store.WAL
	// compactThreshold is DurableConfig.CompactThreshold as given.
	compactThreshold int64
	compacting       atomic.Bool
	// landing is set from a background compaction's cut until it returns,
	// and closed then: what an appender waits on when the log outruns it
	// (maybeCompact).
	landing atomic.Pointer[chan struct{}]
	// retryAt holds the next attempt off after a failed compaction: the
	// log size it must first reach (0 after a success).
	retryAt atomic.Int64

	// snapBuf is the snapshot writer's buffer, kept between compactions
	// (which the WAL serialises) so the steady state allocates none.
	snapBuf []byte
}

// threshold is the log growth since the last cut that triggers a
// background compaction; negative disables it. An explicit threshold is
// what the caller said. The default amortises: a compaction rewrites
// the whole retained state, so it waits until the log has grown by as
// much as the newest snapshot weighs (never less than
// DefaultCompactThreshold). Bytes rewritten per byte logged are then at
// most one however large the state, the log a restart replays is at most
// max(DefaultCompactThreshold, snapshot), and the directory transiently
// holds about two snapshots and two such logs.
func (d *durability) threshold() int64 {
	if d.compactThreshold != 0 {
		return d.compactThreshold
	}
	return max(DefaultCompactThreshold, d.wal.LastCompaction().SnapshotBytes)
}

// DurableConfig configures OpenDurableServer.
type DurableConfig struct {
	// Dir is the WAL data directory (required).
	Dir string
	// Policy selects fsync eagerness (default FsyncBatch).
	Policy store.FsyncPolicy
	// CompactThreshold is the log growth that triggers a background
	// compaction: 0 takes the default rule (DefaultCompactThreshold, or
	// the newest snapshot's size once that is larger), a positive value
	// is used as given, a negative one disables automatic compaction.
	CompactThreshold int64
}

// OpenDurableServer builds a BMS whose state survives process death:
// it opens (or creates) the WAL under cfg.Dir, restores the newest
// snapshot, replays the log tail, and returns a server that logs every
// mutation before applying it. st must be fresh — recovered state is
// restored into it. Callers should Close the server on a graceful
// drain (one last compaction); after a crash the next OpenDurableServer
// recovers instead.
func OpenDurableServer(b *building.Building, st *store.Store, debounce int, cfg DurableConfig) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("bms: durable server needs a data dir")
	}
	s, err := NewServer(b, st, debounce)
	if err != nil {
		return nil, err
	}
	w, err := store.OpenLog(cfg.Dir, cfg.Policy)
	if err != nil {
		return nil, err
	}
	if err := s.recover(w); err != nil {
		_ = w.Close()
		return nil, err
	}
	s.dur = &durability{wal: w, compactThreshold: cfg.CompactThreshold}
	return s, nil
}

// WALSize returns the log bytes appended since the last compaction cut
// (0 for a volatile server).
func (s *Server) WALSize() int64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.wal.Size()
}

// LogErr returns the failure that stopped a durable server's log — its
// first failed write or sync, after which every write is refused until
// the server is reopened over its log — or nil. A volatile server has no
// log to stop.
func (s *Server) LogErr() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.wal.Err()
}

// Close drains the server: it stops its streams between frames
// and then, on a durable server, compacts the WAL (one final snapshot
// beside an empty log) and closes it — in that order, so no stream
// acknowledges a frame the closed log cannot hold. Close is the graceful
// path; a killed process simply recovers from snapshot + log at the next
// OpenDurableServer.
func (s *Server) Close() error {
	s.streams.Stop()
	if s.dur == nil {
		return nil
	}
	if err := s.CompactWAL(); err != nil {
		_ = s.dur.wal.Close()
		return err
	}
	return s.dur.wal.Close()
}

// CompactWAL moves the server's full state into a new snapshot and
// returns once it has landed and the log behind it is reclaimed. Ingest
// is held off only while the state is cut in memory (store.WAL.Compact).
func (s *Server) CompactWAL() error {
	if s.dur == nil {
		return fmt.Errorf("bms: server is not durable")
	}
	return s.dur.wal.Compact(s.cutDurableSnapshot)
}

// LastCompaction describes the newest snapshot of a durable server (the
// zero value for a volatile one).
func (s *Server) LastCompaction() store.Compaction {
	if s.dur == nil {
		return store.Compaction{}
	}
	return s.dur.wal.LastCompaction()
}

// maybeCompact starts a background compaction when the log has
// outgrown the threshold. At most one runs at a time. The caller holds
// no WAL guard: it may wait here for a compaction whose cut waits for
// the guards.
func (s *Server) maybeCompact() {
	d := s.dur
	threshold := d.threshold()
	if threshold < 0 || d.wal.Size() < max(threshold, d.retryAt.Load()) {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		// One is in flight. Before its cut, this log is what it is about
		// to seal: carry on. Behind its cut, a whole threshold has been
		// logged while its snapshot was landing: wait for the landing, so
		// the log cannot outrun the compactions that bound it — a
		// threshold sealed and a threshold live, at most. Under the
		// default threshold that takes a snapshot slower to write than
		// the same bytes take to log frame by frame.
		if landing := d.landing.Load(); landing != nil {
			<-*landing
		}
		return
	}
	go func() {
		defer d.compacting.Store(false)
		landing := make(chan struct{})
		defer close(landing)
		defer d.landing.Store(nil)
		err := d.wal.Compact(func() func(io.Writer) error {
			d.landing.Store(&landing)
			return s.cutDurableSnapshot()
		})
		// A failure loses nothing — the old snapshot and every log file
		// still recover — and is counted and flight-recorded by the WAL
		// (wal_compact_errors_total). The next attempt waits for the log
		// to grow by another threshold: under a persistent fault (a full
		// disk) every upload would otherwise write a whole snapshot.
		if err != nil {
			d.retryAt.Store(d.wal.Size() + threshold)
		} else {
			d.retryAt.Store(0)
		}
	}()
}

// --- log records ------------------------------------------------------

// Record type tags of the JSON (cold) records.
const (
	recInstall = "install" // a migrated device's state installed
	recEvict   = "evict"   // a device's state evicted (migration)
	recExpire  = "expire"  // TTL sweep expired these devices
	recModel   = "model"   // a model snapshot went live
	recFP      = "fp"      // a fingerprint sample was stored
	recLease   = "lease"   // a gateway leadership epoch was granted
)

// walRecord is one cold mutation: the JSON form it is logged in and what
// apply takes, live and in recovery. Field presence follows T.
type walRecord struct {
	T       string         `json:"t"`
	State   *DeviceState   `json:"state,omitempty"`
	Device  string         `json:"device,omitempty"`
	Devices []string       `json:"devices,omitempty"`
	Snap    *ModelSnapshot `json:"snap,omitempty"`
	FP      *fpRecJSON     `json:"fp,omitempty"`
	Lease   *leaseRecJSON  `json:"lease,omitempty"`

	// scene is Snap parsed, when the live caller already holds it; apply
	// parses Snap otherwise.
	scene *classify.SceneSVM
}

// leaseRecJSON is a gateway leadership grant on disk — the cold
// record (and snapshot field) that makes write fencing survive a shard
// restart: a crashed arbiter must never re-grant a deposed epoch.
type leaseRecJSON struct {
	Epoch  uint64 `json:"epoch"`
	Holder string `json:"holder,omitempty"`
}

type fpRecJSON struct {
	Room      string             `json:"room"`
	AtNanos   int64              `json:"atNanos"`
	Distances map[string]float64 `json:"distances"`
}

// Observation records are the WAL's hot path — every ingested batch
// writes one, and under FsyncBatch that write is also an fsync boundary
// — so they are the batch's wire payload, not a second encoding of it:
//
//	[recObsTag][u32 LE payload length][wire batch payload][rooms]
//
// A batch that arrived as a wire frame is logged with the very payload
// bytes the shard received and checked; one from the JSON door goes
// through the same wire.AppendPayload the devices use. The report clock
// therefore stays the float64 seconds the device sent, and replay
// converts it with the same reportTime as ingest. The rooms suffix
// carries the rooms predicted at ingest time, run-length coded —
// (uvarint run, uvarint name length, name) until every report is
// covered — because a device mostly stays where it is. JSON records
// start with '{', so the tag can never open one. The tag moves with the
// payload's form (it is wire.Version's twin): a record under any other
// is refused by name at replay, never misread.
const recObsTag = 0x03

// reportTime converts a report's clock (seconds on the building clock)
// into the store's form. Ingest and replay both go through it, so a
// replayed observation lands on exactly the time the live one did.
func reportTime(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// wireObservations renders a decoded batch in store form into obs
// (len b.Len()). One slab holds the beacons of a run of one device's
// consecutive reports, each observation capped to its own part of it.
// Per run, not per batch: the store retains observations per device,
// and a relay batch of 64 devices must not pin 64 devices' retention to
// one array.
func wireObservations(b *wire.Batch, obs []store.Observation) {
	for i := 0; i < len(obs); {
		j, beacons := i+1, len(b.ReportBeacons(i))
		for j < len(obs) && b.Devices[j] == b.Devices[i] {
			beacons += len(b.ReportBeacons(j))
			j++
		}
		var slab []store.BeaconDistance
		if beacons > 0 {
			slab = make([]store.BeaconDistance, 0, beacons)
		}
		for ; i < j; i++ {
			obs[i] = store.Observation{Device: b.Devices[i], At: reportTime(b.At[i]), Epoch: b.Epoch[i], Seq: b.Seq[i]}
			if span := b.ReportBeacons(i); len(span) > 0 {
				slab = append(slab, span...)
				obs[i].Beacons = slab[len(slab)-len(span) : len(slab) : len(slab)]
			}
		}
	}
}

// appendObsRecord encodes one observation record. payload, when
// non-nil, is the already encoded form of b and is copied verbatim.
func appendObsRecord(dst []byte, b *wire.Batch, payload []byte, rooms []string) []byte {
	dst = append(dst, recObsTag, 0, 0, 0, 0)
	head := len(dst)
	if payload != nil {
		dst = append(dst, payload...)
	} else {
		dst = wire.AppendPayload(dst, b)
	}
	binary.LittleEndian.PutUint32(dst[head-4:], uint32(len(dst)-head))
	return wire.AppendRooms(dst, rooms)
}

// errBadObsRecord reports an observation record whose parts disagree.
// The frame checksum already guards against corruption, so this can
// only be an encoder/decoder bug — but it must still surface as an
// error, never a panic.
var errBadObsRecord = fmt.Errorf("bms: wal replay: malformed observation record")

// decodeObsRecord parses an observation record into b and returns the
// ingest-time room per report, in rooms[:0]. names interns the room
// strings, so a long replay allocates each distinct name once.
func decodeObsRecord(rec []byte, b *wire.Batch, rooms []string, names wire.Interner) ([]string, error) {
	if len(rec) == 0 || rec[0] != recObsTag {
		return nil, errBadObsRecord
	}
	r := wire.Reader{Buf: rec[1:]}
	payload := r.Bytes(uint64(r.U32()))
	if r.Short {
		return nil, errBadObsRecord
	}
	if err := wire.DecodePayload(payload, b); err != nil {
		return nil, fmt.Errorf("bms: wal replay: %w", err)
	}
	rooms = r.Rooms(b.Len(), rooms, names)
	if r.Short || len(rooms) != b.Len() {
		return nil, errBadObsRecord
	}
	return rooms, nil
}

// logObservations appends the batch as one record — one append, and
// under FsyncBatch one fsync, however many devices it interleaves, and
// all of it or none of it on disk after a crash. payload, when non-nil,
// is the received wire payload b was decoded from and is logged
// verbatim. A volatile server has no log; the caller holds the guard
// (hold).
func (s *Server) logObservations(b *wire.Batch, payload []byte, rooms []string) error {
	if s.dur == nil {
		return nil
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = appendObsRecord(*buf, b, payload, rooms)
	return logFailure(s.dur.wal.AppendMeta(*buf))
}

// logRecord appends one cold record; a volatile server has no log. The
// caller holds the guard (hold).
func (s *Server) logRecord(rec *walRecord) error {
	if s.dur == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bms: wal encode: %w", err)
	}
	return logFailure(s.dur.wal.AppendMeta(payload))
}

// logFailure marks a failed append as the server's failure, not the
// request's: nothing of a record the log refused was applied, so its
// sender may send it again — 503 with a Retry-After over HTTP, a hang-up
// on the shard stream.
func logFailure(err error) error {
	if err == nil {
		return nil
	}
	return &transport.Error{Code: http.StatusServiceUnavailable, RetryAfter: time.Second, Err: err}
}

// --- the one commit and the one apply ---------------------------------

// hold opens the WAL guard a commit logs and applies under, and release
// ends it: shared, or exclusive for a record decided from the state it
// sees (the TTL sweep). The guard comes before any lock the apply runs
// under (s.lease.mu for a grant) — the order a compaction's cut takes
// them in, holding the guard exclusively and then reading the lease; the
// other way round, a grant holding the lease and waiting for the guard
// would deadlock with a cut holding the guard and waiting for the lease.
// A volatile server has no log to order against. Neither allocates.
func (s *Server) hold(exclusive bool) {
	if s.dur != nil {
		s.dur.wal.Hold(exclusive)
	}
}

func (s *Server) release(exclusive bool) {
	if s.dur != nil {
		s.dur.wal.Release(exclusive)
	}
}

// commit runs one cold mutation: fence, then log, then apply.
func (s *Server) commit(gwEpoch uint64, rec *walRecord) (applied, error) {
	if err := s.admitEpoch(gwEpoch); err != nil {
		return applied{}, err
	}
	s.hold(false)
	defer s.release(false)
	return s.logApply(rec)
}

// logApply logs rec and applies it once the log holds it; a record the
// log refuses applies nothing. The caller holds the guard.
func (s *Server) logApply(rec *walRecord) (applied, error) {
	if err := s.logRecord(rec); err != nil {
		return applied{}, err
	}
	return s.apply(rec)
}

// applied is what an apply hands a live caller; recovery drops it.
type applied struct {
	version int // model: the version live after it
}

// apply makes one cold record's change — the one place each kind
// happens, whether the record was just logged or is being recovered.
func (s *Server) apply(rec *walRecord) (out applied, err error) {
	missing := func(what string) error { return fmt.Errorf("bms: %s record without %s", rec.T, what) }
	switch rec.T {
	case recInstall:
		if rec.State == nil {
			return out, missing("state")
		}
		s.tracker.Install(rec.State.DeviceState)
		s.st.InstallSeqMark(rec.State.Device, rec.State.Epoch, rec.State.Seq)
	case recEvict:
		if rec.Device == "" {
			return out, missing("device")
		}
		s.tracker.Evict(rec.Device)
		s.st.EvictDevice(rec.Device)
	case recExpire:
		// Tracker state and retained observations go; the ingest
		// high-water mark stays (ExpireBefore says why).
		for _, device := range rec.Devices {
			s.tracker.Evict(device)
			s.st.ExpireDevice(device)
		}
	case recModel:
		if rec.Snap == nil {
			return out, missing("snapshot")
		}
		scene := rec.scene
		if scene == nil {
			if scene, err = sceneOf(*rec.Snap); err != nil {
				return out, fmt.Errorf("bms: model record: %w", err)
			}
		}
		// The store's version and the classifier move under one clsMu
		// hold (clsMu before the store's lock, never the other way round),
		// so no reader pairs one model's version with another's weights.
		// The store installs only above its version, so a replayed model
		// older than a restored one stays out.
		s.clsMu.Lock()
		defer s.clsMu.Unlock()
		var installed bool
		if out.version, installed = s.st.InstallModel(rec.Snap.Model, rec.Snap.Version); installed {
			s.classifier = scene
			s.modelSnap = *rec.Snap
			s.modelSnap.Version = out.version
		}
	case recFP:
		if rec.FP == nil {
			return out, missing("sample")
		}
		sample := fingerprint.Sample{Room: rec.FP.Room, At: time.Duration(rec.FP.AtNanos), Distances: make(map[ibeacon.BeaconID]float64, len(rec.FP.Distances))}
		for raw, d := range rec.FP.Distances {
			id, err := ibeacon.ParseBeaconID(raw)
			if err != nil {
				return out, fmt.Errorf("bms: fp record: %w", err)
			}
			sample.Distances[id] = d
		}
		err = s.st.AddFingerprint(sample)
	case recLease:
		if rec.Lease == nil {
			return out, missing("grant")
		}
		// The highest grant wins. A live caller holds s.lease.mu; recovery
		// runs before anyone else can reach the server.
		if rec.Lease.Epoch > s.lease.epoch {
			s.lease.epoch, s.lease.holder = rec.Lease.Epoch, rec.Lease.Holder
		}
	default:
		return out, fmt.Errorf("bms: unknown record type %q", rec.T)
	}
	return out, err
}

// applyObs is the apply of an observation record — the ingest core's
// tail, and what replay runs on each recovered batch. sc holds the batch
// in store form and the room of each report. The store decides freshness
// against each device's (Epoch, Seq) mark, which is what makes a log
// holding duplicates (every accepted report is logged, fresh or not)
// replay to the committed state, and only fresh reports reach the
// tracker, with their rooms. It returns how many reports were stale.
func (s *Server) applyObs(sc *ingestScratch) (stale int, err error) {
	fresh, err := s.st.AddObservationBatch(sc.obs)
	if err != nil {
		return 0, err
	}
	live := sc.track[:0]
	for i := range sc.obs {
		if fresh[i] {
			o := &sc.obs[i]
			live = append(live, occupancy.Classification{At: o.At, Device: o.Device, Room: sc.rooms[i]})
		}
	}
	s.tracker.ObserveBatch(live)
	return len(sc.obs) - len(live), nil
}

// --- recovery ---------------------------------------------------------

// recover restores the newest snapshot and replays the log tail, each
// record through the apply the live server ran.
func (s *Server) recover(w *store.WAL) error {
	if r, ok, err := w.Snapshot(); err != nil {
		return err
	} else if ok {
		err := s.restoreDurableSnapshot(r)
		_ = r.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name(), err)
		}
	}
	// One pooled batch, one scratch, one rooms slice and one name table
	// serve every observation record of the replay.
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	sc := getScratch()
	defer sc.release()
	var rooms []string
	names := wire.Interner{}
	replay := func(payload []byte) error {
		if len(payload) > 0 && payload[0] == recObsTag {
			var err error
			if rooms, err = decodeObsRecord(payload, b, rooms, names); err != nil {
				return err
			}
			sc.size(b.Len())
			wireObservations(b, sc.obs)
			copy(sc.rooms, rooms)
			_, err = s.applyObs(sc)
			return err
		}
		if len(payload) > 0 && payload[0] != '{' {
			return fmt.Errorf("bms: wal replay: record tag 0x%02x is neither an observation record (0x%02x) nor a JSON record", payload[0], recObsTag)
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("bms: wal decode: %w", err)
		}
		_, err := s.apply(&rec)
		return err
	}
	return w.ReplayLive(replay)
}

// KnownDevices returns every device this server holds durable or
// tracker state for, sorted — the recovered device set a restarted
// gateway rebuilds its registry from (a registry read on the shard
// stream, wire.StreamDevices).
func (s *Server) KnownDevices() []string {
	seen := map[string]bool{}
	for _, d := range s.st.KnownDevices() {
		seen[d] = true
	}
	for _, d := range s.tracker.KnownDevices() {
		seen[d] = true
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

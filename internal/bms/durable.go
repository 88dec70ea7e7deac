// Durability: the BMS side of the write-ahead log. The store's WAL
// carries opaque payloads; this file defines what those payloads are —
// the received wire payload plus a rooms suffix for observation batches
// (the hot path), JSON records for device installs/evicts, TTL
// expiries, model snapshots and fingerprints — plus the boot-time
// recovery that replays snapshot (snapshot.go) + log tail back through
// the normal mutation paths.
//
// Every durable mutation is log-then-apply: the record reaches the WAL
// (and, per fsync policy, the disk) before the in-memory state moves,
// under one wal.Begin guard so compaction can never cut a snapshot
// between a record's append and its apply. Replay is idempotent
// because observation records ride the same (Epoch, Seq) freshness
// marks as live ingest: records the pre-crash process had already
// committed replay as duplicates of themselves in per-device order.
//
// Observation records carry the room predicted at ingest time, so
// replay reproduces the pre-crash tracker state exactly even if the
// model changed between the observation and the crash — replay never
// re-predicts.
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
	"occusim/internal/svm"
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
	// Policy selects fsync eagerness (default FsyncBatch; FsyncInterval
	// syncs every store.DefaultFsyncInterval).
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
	w, err := store.OpenWAL(cfg.Dir, store.ObsStripes, cfg.Policy, 0)
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

// Durable reports whether the server runs over a WAL.
func (s *Server) Durable() bool { return s.dur != nil }

// WALSize returns the log bytes appended since the last compaction cut
// (0 for a volatile server).
func (s *Server) WALSize() int64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.wal.Size()
}

// Close drains the server: it stops the gateway streams between frames
// and then, on a durable server, compacts the WAL (one final snapshot
// beside an empty log) and closes it — in that order, so no stream
// acknowledges a frame the closed log cannot hold. Close is the graceful
// path; a killed process simply recovers from snapshot + log at the next
// OpenDurableServer.
func (s *Server) Close() error {
	s.StopStreams()
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

// walRecord is the JSON envelope of every cold WAL payload. Field
// presence follows T.
type walRecord struct {
	T       string         `json:"t"`
	State   *DeviceState   `json:"state,omitempty"`
	Device  string         `json:"device,omitempty"`
	Devices []string       `json:"devices,omitempty"`
	Snap    *ModelSnapshot `json:"snap,omitempty"`
	FP      *fpRecJSON     `json:"fp,omitempty"`
	Lease   *leaseRecJSON  `json:"lease,omitempty"`
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
// verbatim. The caller holds the Begin guard.
func (s *Server) logObservations(b *wire.Batch, payload []byte, rooms []string) error {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = appendObsRecord(*buf, b, payload, rooms)
	return logFailure(s.dur.wal.AppendMeta(*buf))
}

// logRecord appends one cold record. The caller holds the Begin guard.
func (s *Server) logRecord(rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bms: wal encode: %w", err)
	}
	return logFailure(s.dur.wal.AppendMeta(payload))
}

// logFailure marks a failed append as the server's failure, not the
// request's: ingest logs a batch before applying it, so nothing of a
// batch the log refused landed and its sender may resend it — 503 with a
// Retry-After over HTTP, a hang-up on the shard stream.
func logFailure(err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: http.StatusServiceUnavailable, RetryAfter: time.Second, Err: err}
}

// --- recovery ---------------------------------------------------------

// recover restores the newest snapshot and replays the log tail.
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
	// One pooled batch, one rooms slice and one name table serve every
	// observation record of the replay.
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	var rooms []string
	names := wire.Interner{}
	replay := func(payload []byte) error {
		if len(payload) == 0 || payload[0] != recObsTag {
			return s.replayCold(payload)
		}
		var err error
		if rooms, err = decodeObsRecord(payload, b, rooms, names); err != nil {
			return err
		}
		return s.applyObsReplay(b, rooms)
	}
	return w.Replay(replay, nil)
}

// replayCold applies one recovered JSON record through the normal
// mutation paths.
func (s *Server) replayCold(payload []byte) error {
	if len(payload) > 0 && payload[0] != '{' {
		return fmt.Errorf("bms: wal replay: record tag 0x%02x is neither an observation record (0x%02x) nor a JSON record", payload[0], recObsTag)
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("bms: wal decode: %w", err)
	}
	switch rec.T {
	case recInstall:
		if rec.State == nil {
			return fmt.Errorf("bms: wal replay: install record without state")
		}
		s.tracker.Install(rec.State.DeviceState)
		s.st.InstallSeqMark(rec.State.Device, rec.State.Epoch, rec.State.Seq)
	case recEvict:
		if rec.Device == "" {
			return fmt.Errorf("bms: wal replay: evict record without device")
		}
		s.tracker.Evict(rec.Device)
		s.st.EvictDevice(rec.Device)
	case recExpire:
		for _, device := range rec.Devices {
			// ExpireBefore semantics: drop tracker state and retained
			// observations, keep the ingest high-water mark.
			s.tracker.Evict(device)
			s.st.ExpireDevice(device)
		}
	case recModel:
		if rec.Snap == nil {
			return fmt.Errorf("bms: wal replay: model record without snapshot")
		}
		if err := s.restoreModel(*rec.Snap); err != nil {
			return err
		}
	case recLease:
		if rec.Lease == nil {
			return fmt.Errorf("bms: wal replay: lease record without grant")
		}
		s.installLease(rec.Lease.Epoch, rec.Lease.Holder)
	case recFP:
		if rec.FP == nil {
			return fmt.Errorf("bms: wal replay: fingerprint record without sample")
		}
		sample := fingerprint.Sample{
			Room:      rec.FP.Room,
			At:        time.Duration(rec.FP.AtNanos),
			Distances: map[ibeacon.BeaconID]float64{},
		}
		for raw, d := range rec.FP.Distances {
			id, err := ibeacon.ParseBeaconID(raw)
			if err != nil {
				return fmt.Errorf("bms: wal replay: %w", err)
			}
			sample.Distances[id] = d
		}
		if err := s.st.AddFingerprint(sample); err != nil {
			return fmt.Errorf("bms: wal replay: %w", err)
		}
	default:
		return fmt.Errorf("bms: wal replay: unknown record type %q", rec.T)
	}
	return nil
}

// applyObsReplay feeds a recovered observation record through the
// normal ingest mutations: the store decides freshness against the
// recovered (Epoch, Seq) marks exactly as live ingest would — which is
// what makes a log holding duplicates (every accepted report is logged,
// fresh or not) replay to the committed state — and only fresh
// observations reach the tracker, with their recorded rooms.
func (s *Server) applyObsReplay(b *wire.Batch, rooms []string) error {
	sc := getScratch()
	defer sc.release()
	sc.size(b.Len())
	wireObservations(b, sc.obs)
	fresh, err := s.st.AddObservationBatch(sc.obs)
	if err != nil {
		return fmt.Errorf("bms: wal replay: %w", err)
	}
	live := sc.track[:0]
	for i, o := range sc.obs {
		if fresh[i] {
			live = append(live, occupancy.Classification{At: o.At, Device: o.Device, Room: rooms[i]})
		}
	}
	s.tracker.ObserveBatch(live)
	return nil
}

// restoreModel rebuilds the live classifier from a recovered model
// snapshot, installing blob and version into the store through the
// same version-monotonic gate as a live distribution (replaying an
// older model over a snapshot-restored newer one must keep the newer).
func (s *Server) restoreModel(snap ModelSnapshot) error {
	beacons := make([]ibeacon.BeaconID, 0, len(snap.Beacons))
	for _, raw := range snap.Beacons {
		id, err := ibeacon.ParseBeaconID(raw)
		if err != nil {
			return fmt.Errorf("bms: wal replay: %w", err)
		}
		beacons = append(beacons, id)
	}
	model := new(svm.Model)
	if err := json.Unmarshal(snap.Model, model); err != nil {
		return fmt.Errorf("bms: wal replay: decode model: %w", err)
	}
	if got, want := len(beacons), model.NumFeatures(); got != want {
		return fmt.Errorf("bms: wal replay: snapshot carries %d beacons but the model was trained on %d features", got, want)
	}
	scene := classify.NewSceneSVM(beacons, model)
	s.clsMu.Lock()
	defer s.clsMu.Unlock()
	version, installed := s.st.InstallModel(snap.Model, snap.Version)
	if !installed && version != snap.Version {
		return nil
	}
	snap.Version = version
	s.sceneSVM = scene
	s.classifier = scene
	s.modelSnap = snap
	return nil
}

// KnownDevices returns every device this server holds durable or
// tracker state for, sorted — the recovered device set a restarted
// gateway rebuilds its registry from (GET /api/v1/devices).
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

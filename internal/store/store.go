// Package store is the Building Management Server's data layer: a
// thread-safe in-memory store for device observations, fingerprint
// samples and the trained classification model, with per-device indices
// and bounded retention. The paper's prototype kept the same data in a
// database on the Raspberry Pi server.
//
// Observations are lock-striped across device shards so that concurrent
// ingest from many devices does not serialise on one mutex; fingerprints
// and the model keep their own lock (they are written rarely, during the
// collection and training phases).
//
// The write-ahead log (wal.go) makes a server's state durable under one
// of two fsync policies: FsyncBatch acknowledges an append once it is on
// stable storage, FsyncOff once it is in the kernel's page cache, which
// survives a killed process but not a power or kernel crash.
package store

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/stripe"
	"occusim/internal/wire"
)

// BeaconDistance is one ranged beacon inside an observation — the wire
// codec's beacon, under its store name: a decoded report's span is
// stored and classified as it is, never converted element by element.
type BeaconDistance = wire.Beacon

// Observation is one report from a device: the beacons it currently
// ranges and their estimated distances. Epoch and Seq mirror the wire
// report's idempotency key (see transport.Report); Seq 0 marks an
// unsequenced observation, which is never deduplicated.
type Observation struct {
	Device  string
	At      time.Duration
	Epoch   uint64
	Seq     uint64
	Beacons []BeaconDistance
}

// seqMark is a device's ingest high-water mark: the highest
// (epoch, seq) the store has accepted.
type seqMark struct {
	epoch, seq uint64
}

// accepts reports whether a sequenced observation at (epoch, seq) is
// fresh relative to the mark. Seq 0 (unsequenced) is always fresh.
// Within one epoch only strictly increasing seqs are fresh — there is
// no modular wraparound, so a counter that overflows back to small
// values is rejected until the device declares a new epoch.
func (m seqMark) accepts(epoch, seq uint64) bool {
	if seq == 0 {
		return true
	}
	if epoch != m.epoch {
		return epoch > m.epoch
	}
	return seq > m.seq
}

// obsShards is the observation lock-stripe count (power of two). 16
// stripes keep the per-stripe collision probability low for the crowd
// sizes the benchmark's workloads drive, at 16 mutexes of footprint.
const obsShards = 16

// ObsStripes is the store's observation lock-stripe count.
const ObsStripes = obsShards

// StripeFor maps a device name onto its observation stripe — the same
// mapping AddObservationBatch coalesces runs with.
func StripeFor(device string) int { return stripe.Index(device, obsShards) }

// obsShard holds the observations of the devices hashing to one stripe,
// plus their ingest high-water marks (same stripe, same lock: the
// freshness decision and the append are one critical section).
type obsShard struct {
	mu           sync.RWMutex
	observations map[string][]Observation
	marks        map[string]seqMark
}

// Store is safe for concurrent use.
type Store struct {
	maxPerDevice int
	shards       [obsShards]obsShard

	mu           sync.RWMutex // guards fingerprints, beacon order, model
	fingerprints []fingerprint.Sample
	beaconOrder  []ibeacon.BeaconID
	beaconSeen   map[ibeacon.BeaconID]bool

	model        []byte
	modelVersion int
}

// New creates a store retaining at most maxPerDevice observations per
// device (oldest evicted first). maxPerDevice must be positive.
func New(maxPerDevice int) (*Store, error) {
	if maxPerDevice < 1 {
		return nil, fmt.Errorf("store: maxPerDevice must be positive, got %d", maxPerDevice)
	}
	s := &Store{maxPerDevice: maxPerDevice, beaconSeen: map[ibeacon.BeaconID]bool{}}
	for i := range s.shards {
		s.shards[i].observations = map[string][]Observation{}
		s.shards[i].marks = map[string]seqMark{}
	}
	return s, nil
}

// shardFor maps a device name onto its stripe.
func (s *Store) shardFor(device string) *obsShard {
	return &s.shards[StripeFor(device)]
}

// AddObservationBatch appends many observations, taking each touched
// stripe lock once per run of same-stripe devices rather than once per
// report. Per-device arrival order is preserved. The batch is validated
// up front: either every observation is named and the whole batch is
// processed, or nothing is. The returned mask marks which observations
// were fresh (stored and to be applied downstream) versus duplicate or
// stale retransmissions, decided against the per-device high-water
// mark as the batch lands — so an out-of-order seq within one batch is
// dropped exactly as one arriving in a later batch would be.
func (s *Store) AddObservationBatch(obs []Observation) ([]bool, error) {
	for i := range obs {
		if obs[i].Device == "" {
			return nil, fmt.Errorf("store: observation %d without device", i)
		}
	}
	fresh := make([]bool, len(obs))
	for i := 0; i < len(obs); {
		sh := s.shardFor(obs[i].Device)
		j := i + 1
		for j < len(obs) && s.shardFor(obs[j].Device) == sh {
			j++
		}
		sh.mu.Lock()
		for k := i; k < j; k++ {
			fresh[k] = s.appendLocked(sh, obs[k])
		}
		sh.mu.Unlock()
		i = j
	}
	for i, o := range obs {
		if fresh[i] {
			s.noteBeacons(o.Beacons)
		}
	}
	return fresh, nil
}

// appendLocked stores one observation if it is fresh against its
// device's high-water mark, advancing the mark; callers hold the
// stripe lock. It reports freshness.
func (s *Store) appendLocked(sh *obsShard, o Observation) bool {
	if !sh.marks[o.Device].accepts(o.Epoch, o.Seq) {
		return false
	}
	if o.Seq != 0 {
		sh.marks[o.Device] = seqMark{epoch: o.Epoch, seq: o.Seq}
	}
	obs := append(sh.observations[o.Device], o)
	if len(obs) > s.maxPerDevice {
		obs = obs[len(obs)-s.maxPerDevice:]
	}
	sh.observations[o.Device] = obs
	return true
}

// SeqMark returns the device's ingest high-water mark (0, 0 when the
// device has never sent a sequenced observation).
func (s *Store) SeqMark(device string) (epoch, seq uint64) {
	sh := s.shardFor(device)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.marks[device]
	return m.epoch, m.seq
}

// InstallSeqMark seeds the device's high-water mark — the receiving
// half of shard-to-shard device migration. The mark only moves
// forward, compared lexicographically on (epoch, seq) — NOT with the
// ingest-freshness predicate, whose seq==0 escape hatch is for
// unsequenced reports and would let a crafted {epoch>0, seq:0}
// payload regress a live mark and reopen the dedup window. Installing
// a stale mark under a live one is a no-op, so a retried migration
// cannot reopen a window for duplicates.
func (s *Store) InstallSeqMark(device string, epoch, seq uint64) {
	if device == "" || (seq == 0 && epoch == 0) {
		return
	}
	sh := s.shardFor(device)
	sh.mu.Lock()
	m := sh.marks[device]
	if epoch > m.epoch || (epoch == m.epoch && seq > m.seq) {
		sh.marks[device] = seqMark{epoch: epoch, seq: seq}
	}
	sh.mu.Unlock()
}

// ExpireDevice drops the device's retained observations but keeps its
// ingest high-water mark — the TTL-sweep eviction. One critical
// section: the mark is never absent, so a retransmission racing the
// sweep can never slip in as fresh (EvictDevice, by contrast, drops
// the mark because migration has carried it to the new owner).
func (s *Store) ExpireDevice(device string) {
	sh := s.shardFor(device)
	sh.mu.Lock()
	delete(sh.observations, device)
	sh.mu.Unlock()
}

// EvictDevice removes the device's retained observations and its
// high-water mark — the last step of shard-to-shard device migration,
// after SeqMark has read the mark for the new owner (the mark travels
// with the device so the new owner keeps deduplicating its
// retransmissions).
func (s *Store) EvictDevice(device string) {
	sh := s.shardFor(device)
	sh.mu.Lock()
	delete(sh.marks, device)
	delete(sh.observations, device)
	sh.mu.Unlock()
}

// noteBeacons records first sight of each beacon. The read-locked
// already-seen check keeps steady-state ingest off the write lock.
func (s *Store) noteBeacons(beacons []BeaconDistance) {
	allSeen := true
	s.mu.RLock()
	for _, b := range beacons {
		if !s.beaconSeen[b.ID] {
			allSeen = false
			break
		}
	}
	s.mu.RUnlock()
	if allSeen {
		return
	}
	s.mu.Lock()
	for _, b := range beacons {
		s.noteBeacon(b.ID)
	}
	s.mu.Unlock()
}

// noteBeacon records first sight of a beacon; callers hold s.mu.
func (s *Store) noteBeacon(id ibeacon.BeaconID) {
	if !s.beaconSeen[id] {
		s.beaconSeen[id] = true
		s.beaconOrder = append(s.beaconOrder, id)
	}
}

// Latest returns the most recent observation of the device.
func (s *Store) Latest(device string) (Observation, bool) {
	sh := s.shardFor(device)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obs := sh.observations[device]
	if len(obs) == 0 {
		return Observation{}, false
	}
	return obs[len(obs)-1], true
}

// DeviceCut is one device's share of a Cut: its ingest high-water mark
// and its retained observations as they stood when the cut was taken.
type DeviceCut struct {
	Device     string
	Epoch, Seq uint64
	// History is a view, not a copy. It stays valid and unchanging
	// while ingest continues, because the store only ever appends to a
	// device's history and re-slices it forward (appendLocked), replaces
	// it wholesale with a fresh array (RestoreObservations) or drops it
	// (ExpireDevice, EvictDevice): no element below a captured length is
	// written again, so later appends land past the view's end or in a
	// new array. Any new mutation of retained observations must keep that
	// true. Callers must not write through the view.
	History []Observation
}

// Cut is the store's durable state at one instant: every device it
// holds a mark or observations for, in no particular order, and the
// training state. Taking it costs one map walk per stripe — nothing is
// copied or encoded — so a snapshot writer can take it while ingest is
// briefly excluded and serialise it while ingest runs again. The cut is
// only as consistent as its caller makes it: the stripes are visited
// one after another, so mutations must be held off for its duration
// (the WAL's exclusive hold does that for a durable server).
type Cut struct {
	Devices  []DeviceCut
	training trainingCut
}

// WriteTraining serialises the training state as of the cut, in the
// form ReadSnapshot restores.
func (c *Cut) WriteTraining(w io.Writer) error { return c.training.write(w) }

// Cut captures the store's durable state (see Cut).
func (s *Store) Cut() *Cut {
	c := &Cut{training: s.cutTraining()}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for device, m := range sh.marks {
			c.Devices = append(c.Devices, DeviceCut{Device: device, Epoch: m.epoch, Seq: m.seq, History: sh.observations[device]})
		}
		for device, obs := range sh.observations {
			if _, marked := sh.marks[device]; !marked {
				c.Devices = append(c.Devices, DeviceCut{Device: device, History: obs})
			}
		}
		sh.mu.RUnlock()
	}
	return c
}

// KnownDevices returns every device the store holds any state for —
// retained observations or an ingest high-water mark — sorted. This is
// the durable notion of "known": a device whose observations were
// TTL-expired but whose mark survives must still be reported, or a
// recovered gateway would route its retransmissions as if the device
// were new.
func (s *Store) KnownDevices() []string {
	seen := map[string]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for d := range sh.observations {
			seen[d] = true
		}
		for d := range sh.marks {
			seen[d] = true
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// RestoreObservations replaces the device's retained observations
// wholesale — the snapshot-restore path, which must reproduce the
// pre-crash list exactly rather than re-run freshness decisions. The
// retention bound still applies. The high-water mark is NOT touched;
// restore it separately with InstallSeqMark.
func (s *Store) RestoreObservations(device string, obs []Observation) {
	if device == "" {
		return
	}
	sh := s.shardFor(device)
	sh.mu.Lock()
	if len(obs) == 0 {
		delete(sh.observations, device)
	} else {
		if len(obs) > s.maxPerDevice {
			obs = obs[len(obs)-s.maxPerDevice:]
		}
		sh.observations[device] = append([]Observation(nil), obs...)
	}
	sh.mu.Unlock()
	for _, o := range obs {
		s.noteBeacons(o.Beacons)
	}
}

// AddFingerprint stores one labelled sample from the collection phase.
// New beacons are noted in sorted identity order, not map iteration
// order: first-seen order defines the feature columns of the training
// matrix, and a column permutation would reorder the floating-point
// accumulations enough to flip boundary predictions between otherwise
// identical runs.
func (s *Store) AddFingerprint(sample fingerprint.Sample) error {
	if sample.Room == "" {
		return fmt.Errorf("store: fingerprint without room label")
	}
	ids := make([]ibeacon.BeaconID, 0, len(sample.Distances))
	for id := range sample.Distances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fingerprints = append(s.fingerprints, sample)
	for _, id := range ids {
		s.noteBeacon(id)
	}
	return nil
}

// FingerprintCount returns the stored sample count.
func (s *Store) FingerprintCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.fingerprints)
}

// FingerprintDataset materialises the stored samples as a dataset whose
// beacon order is the order beacons were first seen.
func (s *Store) FingerprintDataset() *fingerprint.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := fingerprint.New(s.beaconOrder)
	for _, sample := range s.fingerprints {
		d.Add(sample)
	}
	return d
}

// InstallModel stores a model blob distributed from elsewhere (the
// fleet gateway pushing a trainer's snapshot), stamping the
// distributor's version so every shard reports the same one. Stale and
// duplicate distributions — version not above the current one — are
// ignored, which makes retried installs idempotent and lets
// out-of-order distributions converge on the newest model instead of
// leaving shards on whichever install landed last. A non-positive
// version falls back to bumping the local counter. Returns the store's
// model version and whether the blob was installed.
func (s *Store) InstallModel(blob []byte, version int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version > 0 && version <= s.modelVersion {
		return s.modelVersion, false
	}
	s.model = append([]byte(nil), blob...)
	if version > 0 {
		s.modelVersion = version
	} else {
		s.modelVersion++
	}
	return s.modelVersion, true
}

// Model returns the current model blob and version (nil, 0 when absent).
func (s *Store) Model() ([]byte, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.model == nil {
		return nil, 0
	}
	return append([]byte(nil), s.model...), s.modelVersion
}

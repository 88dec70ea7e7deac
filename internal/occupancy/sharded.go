package occupancy

import (
	"sort"
	"sync"
	"time"

	"occusim/internal/stripe"
)

// trackerShards is the lock-stripe count of a Sharded tracker (power of
// two). Devices hash onto stripes, so concurrent ingest from a crowd
// contends on 16 mutexes instead of one.
const trackerShards = 16

// Classification is one (device, room) observation entering a Sharded
// tracker, the batch-ingest analogue of Tracker.Observe's arguments.
type Classification struct {
	At     time.Duration
	Device string
	Room   string
}

// trackerShard is one stripe: its mutex guards its tracker.
type trackerShard struct {
	mu sync.Mutex
	tr *Tracker
}

// Sharded stripes Tracker state across device shards so that concurrent
// observations from different devices do not serialise on one mutex.
// Observations of one device must still arrive in nondecreasing time
// order (each device reports its own timeline); observations of
// different devices may race freely.
type Sharded struct {
	shards [trackerShards]trackerShard
}

// NewSharded builds a striped tracker with the given debounce (see
// NewTracker).
func NewSharded(debounce int) (*Sharded, error) {
	s := &Sharded{}
	for i := range s.shards {
		tr, err := NewTracker(debounce)
		if err != nil {
			return nil, err
		}
		s.shards[i].tr = tr
	}
	return s, nil
}

// shardFor maps a device name onto its stripe.
func (s *Sharded) shardFor(device string) *trackerShard {
	return &s.shards[stripe.Index(device, trackerShards)]
}

// ObserveBatch applies many classifications, taking each touched stripe
// lock once per run of same-stripe devices. Input order is preserved
// within a stripe, so per-device time ordering carries through. It
// returns all committed events in input order.
func (s *Sharded) ObserveBatch(batch []Classification) []Event {
	var events []Event
	for i := 0; i < len(batch); {
		sh := s.shardFor(batch[i].Device)
		j := i + 1
		for j < len(batch) && s.shardFor(batch[j].Device) == sh {
			j++
		}
		sh.mu.Lock()
		for _, c := range batch[i:j] {
			events = append(events, sh.tr.Observe(c.At, c.Device, c.Room)...)
		}
		sh.mu.Unlock()
		i = j
	}
	return events
}

// Export copies the device's state without mutating it, through the
// same stripe lock ingest takes — an Export racing an Observe of the
// same device sees either the state before or after that observation,
// never a half-applied one.
func (s *Sharded) Export(device string) (DeviceState, bool) {
	sh := s.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tr.Export(device)
}

// Evict removes the device's state (see Tracker.Evict), locking the
// device's ingest stripe.
func (s *Sharded) Evict(device string) {
	sh := s.shardFor(device)
	sh.mu.Lock()
	sh.tr.Evict(device)
	sh.mu.Unlock()
}

// Install replaces the device's state with a migrated one (see
// Tracker.Install), locking the device's ingest stripe.
func (s *Sharded) Install(st DeviceState) {
	if st.Device == "" {
		return
	}
	sh := s.shardFor(st.Device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.tr.Install(st)
}

// IdleBefore returns, sorted, the devices last observed before cutoff
// across all stripes (see Tracker.IdleBefore), evicting none of them: a
// TTL sweep names its devices, logs them, then evicts each.
func (s *Sharded) IdleBefore(cutoff time.Duration) []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.tr.IdleBefore(cutoff)...)
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// RoomOf returns the committed room of the device ("" when unknown).
func (s *Sharded) RoomOf(device string) string {
	sh := s.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tr.RoomOf(device)
}

// Summary returns the rollup state across all shards in one pass: each
// stripe's occupants, tallies and dwell are read under that stripe's
// lock once, so a device never shows in a room its enter event has not
// been counted for. The maps are sized from a count taken first, stripe
// by stripe, so filling them grows nothing unless ingest adds devices in
// between.
func (s *Sharded) Summary() Summary {
	devices, rooms := 0, 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		devices += len(sh.tr.current)
		rooms = max(rooms, len(sh.tr.tallies))
		sh.mu.Unlock()
	}
	sum := NewSummary(devices, rooms)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.tr.addTo(&sum)
		sh.mu.Unlock()
	}
	return sum
}

// KnownDevices returns every device any stripe holds state for, in the
// wider recovery sense of Tracker.KnownDevices, sorted.
func (s *Sharded) KnownDevices() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.tr.KnownDevices()...)
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// InstallEvents routes recovered events to their devices' stripes in
// input order, so a later Events() merge reproduces the pre-crash
// output byte-for-byte (the input comes from Events(), whose stable
// (At, Device) sort this round-trips through unchanged).
func (s *Sharded) InstallEvents(events []Event) {
	for i := 0; i < len(events); {
		sh := s.shardFor(events[i].Device)
		j := i + 1
		for j < len(events) && s.shardFor(events[j].Device) == sh {
			j++
		}
		sh.mu.Lock()
		sh.tr.InstallEvents(events[i:j])
		sh.mu.Unlock()
		i = j
	}
}

// Events returns all committed events merged across shards in
// nondecreasing time order (the order the energy controllers require).
// Events with equal timestamps order by device name; one device's
// exit/enter pair at the same instant keeps its in-shard order.
func (s *Sharded) Events() []Event {
	var views [trackerShards][]Event
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		views[i] = sh.tr.events // append-only (Tracker.record): a stable view
		sh.mu.Unlock()
	}
	return MergeEvents(views[:]...)
}

// MergeEvents copies event logs — a tracker's stripes, or a fleet's
// shards — into one list in the canonical order: nondecreasing time,
// ties broken by device name, one device's same-instant exit/enter pair
// keeping its order within its log. It returns nil when every log is
// empty.
func MergeEvents(views ...[]Event) []Event {
	n := 0
	for _, v := range views {
		n += len(v)
	}
	if n == 0 {
		return nil
	}
	all := make([]Event, 0, n)
	for _, v := range views {
		all = append(all, v...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].Device < all[j].Device
	})
	return all
}

// Cut is the tracker's durable state at one instant: every known
// device's state, in no particular order, and the event history. Taking
// it costs a walk over the devices and sixteen slice headers — the
// events are neither copied nor sorted until Events is called — so a
// snapshot writer takes it while ingest is briefly excluded and
// serialises it while ingest runs again. As with store.Cut, the stripes
// are visited one after another: the caller holds mutations off.
type Cut struct {
	Devices []DeviceState
	events  [trackerShards][]Event
}

// Cut captures the tracker's durable state (see Cut).
func (s *Sharded) Cut() *Cut {
	c := &Cut{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		c.Devices = sh.tr.exportAll(c.Devices)
		c.events[i] = sh.tr.events
		sh.mu.Unlock()
	}
	return c
}

// Events returns the event history as of the cut, in Sharded.Events'
// order.
func (c *Cut) Events() []Event { return MergeEvents(c.events[:]...) }

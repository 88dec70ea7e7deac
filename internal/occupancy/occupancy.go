// Package occupancy turns per-device room classifications into the
// building-level occupancy state the BMS consumes: who is in which room,
// enter/exit events, per-room head counts and dwell-time accounting.
//
// Classifications arrive noisy (Section VI's model is ~94% accurate), so
// the tracker debounces: a device must be classified in the same new room
// for a configurable number of consecutive observations before the
// transition is committed. This is the server-side analogue of the
// client's history filter.
package occupancy

import (
	"fmt"
	"sort"
	"time"
)

// EventKind distinguishes enter and exit events.
type EventKind int

const (
	// Enter marks a committed transition into a room.
	Enter EventKind = iota
	// Exit marks a committed transition out of a room.
	Exit
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Enter:
		return "enter"
	case Exit:
		return "exit"
	default:
		return fmt.Sprintf("eventKind(%d)", int(k))
	}
}

// Event is one committed room transition.
type Event struct {
	At     time.Duration
	Device string
	Kind   EventKind
	Room   string
}

// Tracker maintains the occupancy state of one building.
type Tracker struct {
	debounce int

	current map[string]string // device → committed room
	pending map[string]*pendingState
	lastAt  map[string]time.Duration
	dwell   map[string]map[string]time.Duration // device → room → time
	events  []Event
	// tallies counts the events per room, kept in step with events so a
	// rollup reads them instead of walking the log.
	tallies map[string]Tally
}

// Tally is one room's committed transition counts.
type Tally struct {
	Enters, Exits int
}

type pendingState struct {
	room  string
	count int
}

// NewTracker builds a tracker. debounce is the number of consecutive
// identical classifications needed to commit a transition; 1 commits
// immediately.
func NewTracker(debounce int) (*Tracker, error) {
	if debounce < 1 {
		return nil, fmt.Errorf("occupancy: debounce must be at least 1, got %d", debounce)
	}
	return &Tracker{
		debounce: debounce,
		current:  map[string]string{},
		pending:  map[string]*pendingState{},
		lastAt:   map[string]time.Duration{},
		dwell:    map[string]map[string]time.Duration{},
		tallies:  map[string]Tally{},
	}, nil
}

// Observe records one classification of device at time at. It returns
// the committed events this observation triggered (an exit and/or an
// enter), or nil when the state is unchanged or still debouncing.
// Observations must arrive in nondecreasing time order per device.
func (t *Tracker) Observe(at time.Duration, device, room string) []Event {
	// Dwell accounting: the device spent the interval since its last
	// observation in its committed room.
	if last, seen := t.lastAt[device]; seen && at > last {
		cur := t.current[device]
		if cur != "" {
			if t.dwell[device] == nil {
				t.dwell[device] = map[string]time.Duration{}
			}
			t.dwell[device][cur] += at - last
		}
	}
	t.lastAt[device] = at

	committed := t.current[device]
	if room == committed {
		delete(t.pending, device) // observation confirms current state
		return nil
	}
	p := t.pending[device]
	if p == nil || p.room != room {
		t.pending[device] = &pendingState{room: room, count: 1}
	} else {
		p.count++
	}
	if t.pending[device].count < t.debounce {
		return nil
	}

	// Commit the transition.
	delete(t.pending, device)
	var events []Event
	if committed != "" {
		events = append(events, Event{At: at, Device: device, Kind: Exit, Room: committed})
	}
	t.current[device] = room
	events = append(events, Event{At: at, Device: device, Kind: Enter, Room: room})
	t.record(events)
	return events
}

// record appends committed events to the log and counts them into the
// per-room tallies — the one place both grow, so they cannot disagree.
// Anything that is not an enter counts as an exit, as every reader of
// Event.Kind treats it.
func (t *Tracker) record(events []Event) {
	t.events = append(t.events, events...)
	for i := range events {
		tally := t.tallies[events[i].Room]
		if events[i].Kind == Enter {
			tally.Enters++
		} else {
			tally.Exits++
		}
		t.tallies[events[i].Room] = tally
	}
}

// RoomOf returns the committed room of the device ("" when unknown).
func (t *Tracker) RoomOf(device string) string { return t.current[device] }

// RoomSummary is one room's slice of a Summary.
type RoomSummary struct {
	// Occupants is the current head count.
	Occupants int
	// Tally counts the room's committed transitions over the tracker's
	// lifetime.
	Tally
	// Dwell is the time the currently tracked devices have spent there.
	Dwell time.Duration
}

// Summary is everything a building-level rollup is rendered from, at a
// cost set by the current state — devices and rooms — not by how long
// the event log has grown.
type Summary struct {
	// Devices maps each committed device to its room. Federation merges
	// it as a union: a device two shards both still track counts once.
	Devices map[string]string
	// Events is the committed event count.
	Events int
	// Rooms maps room name to its aggregates.
	Rooms map[string]RoomSummary
}

// NewSummary returns an empty summary ready to merge into, its maps
// sized for the given numbers of devices and rooms, so filling it grows
// nothing.
func NewSummary(devices, rooms int) Summary {
	return Summary{Devices: make(map[string]string, devices), Rooms: make(map[string]RoomSummary, rooms)}
}

// Merge folds o into s: devices by union (o wins a shared name), event
// counts and per-room aggregates by sum.
func (s *Summary) Merge(o Summary) {
	for dev, room := range o.Devices {
		s.Devices[dev] = room
	}
	s.Events += o.Events
	for room, r := range o.Rooms {
		sum := s.Rooms[room]
		sum.Occupants += r.Occupants
		sum.Enters += r.Enters
		sum.Exits += r.Exits
		sum.Dwell += r.Dwell
		s.Rooms[room] = sum
	}
}

// addTo folds the tracker's state into sum in one pass.
func (t *Tracker) addTo(sum *Summary) {
	for dev, room := range t.current {
		sum.Devices[dev] = room
		r := sum.Rooms[room]
		r.Occupants++
		sum.Rooms[room] = r
	}
	sum.Events += len(t.events)
	for room, tally := range t.tallies {
		r := sum.Rooms[room]
		r.Enters += tally.Enters
		r.Exits += tally.Exits
		sum.Rooms[room] = r
	}
	for _, rooms := range t.dwell {
		for room, d := range rooms {
			r := sum.Rooms[room]
			r.Dwell += d
			sum.Rooms[room] = r
		}
	}
}

// KnownDevices returns every device the tracker holds ANY state for —
// committed room, pending debounce progress or an observation clock —
// sorted. The occupancy summary counts only committed devices; recovery
// needs the wider set, because a device mid-debounce at the crash must
// survive the restart.
func (t *Tracker) KnownDevices() []string {
	seen := make(map[string]bool, len(t.lastAt))
	for d := range t.lastAt {
		seen[d] = true
	}
	for d := range t.current {
		seen[d] = true
	}
	for d := range t.pending {
		seen[d] = true
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// InstallEvents appends recovered committed events — the
// snapshot-restore path. Events are history, not per-device state, so
// Install does not carry them; a recovered tracker replays them here
// before observing anything new. The per-room tallies are rebuilt from
// the same events, so they need no field of their own on disk.
func (t *Tracker) InstallEvents(events []Event) {
	t.record(events)
}

// DeviceState is the migratable slice of one device's tracker state:
// committed room, in-flight debounce progress, observation clock and
// dwell accounting. The fleet layer hands it from a device's old shard
// owner to its new one on rebalance, so a moved device neither
// restarts its debounce nor leaves dwell time behind. Time fields
// marshal as integer nanoseconds — migration must be exact, because
// the federated views are compared byte-for-byte against a single
// server.
type DeviceState struct {
	Device string `json:"device"`
	// Room is the committed room ("" when none committed yet).
	Room string `json:"room,omitempty"`
	// PendingRoom/PendingCount carry in-flight debounce progress.
	PendingRoom  string `json:"pendingRoom,omitempty"`
	PendingCount int    `json:"pendingCount,omitempty"`
	// Seen is true once the device has been observed; LastAt is then
	// its last observation time on the report clock.
	Seen   bool          `json:"seen"`
	LastAt time.Duration `json:"lastAtNanos"`
	// Dwell maps room → accumulated dwell time.
	Dwell map[string]time.Duration `json:"dwellNanos,omitempty"`
}

// known reports whether the tracker holds any state for the device.
func (t *Tracker) known(device string) bool {
	if _, ok := t.lastAt[device]; ok {
		return true
	}
	if _, ok := t.current[device]; ok {
		return true
	}
	_, ok := t.pending[device]
	return ok
}

// Export copies the device's state without mutating the tracker
// (ok=false when the device is unknown).
func (t *Tracker) Export(device string) (DeviceState, bool) {
	if !t.known(device) {
		return DeviceState{}, false
	}
	st := DeviceState{Device: device, Room: t.current[device]}
	if p := t.pending[device]; p != nil {
		st.PendingRoom, st.PendingCount = p.room, p.count
	}
	if last, ok := t.lastAt[device]; ok {
		st.Seen, st.LastAt = true, last
	}
	if len(t.dwell[device]) > 0 {
		st.Dwell = make(map[string]time.Duration, len(t.dwell[device]))
		for room, d := range t.dwell[device] {
			st.Dwell[room] = d
		}
	}
	return st, true
}

// exportAll appends the state of every device the tracker knows (in
// KnownDevices' wide sense) to dst, in no particular order.
func (t *Tracker) exportAll(dst []DeviceState) []DeviceState {
	export := func(device string) {
		st, _ := t.Export(device)
		dst = append(dst, st)
	}
	for device := range t.lastAt {
		export(device)
	}
	for device := range t.current {
		if _, ok := t.lastAt[device]; !ok {
			export(device)
		}
	}
	for device := range t.pending {
		_, seen := t.lastAt[device]
		if _, committed := t.current[device]; !seen && !committed {
			export(device)
		}
	}
	return dst
}

// Evict removes every trace of the device — committed room, pending
// debounce progress, observation clock and dwell accounting — so the
// shard no longer reports it in any view. Committed events stay: they
// are history, not state. An unknown device is a no-op; a caller that
// moves the state reads it with Export first.
func (t *Tracker) Evict(device string) {
	delete(t.current, device)
	delete(t.pending, device)
	delete(t.lastAt, device)
	delete(t.dwell, device)
}

// Install replaces the device's state with a migrated one, overwriting
// whatever the tracker held (a recovered shard may hold a stale copy;
// the migrated state is the newer truth). An empty device name is
// ignored.
func (t *Tracker) Install(st DeviceState) {
	if st.Device == "" {
		return
	}
	if st.Room != "" {
		t.current[st.Device] = st.Room
	} else {
		delete(t.current, st.Device)
	}
	if st.PendingRoom != "" && st.PendingCount > 0 {
		t.pending[st.Device] = &pendingState{room: st.PendingRoom, count: st.PendingCount}
	} else {
		delete(t.pending, st.Device)
	}
	if st.Seen {
		t.lastAt[st.Device] = st.LastAt
	} else {
		delete(t.lastAt, st.Device)
	}
	if len(st.Dwell) > 0 {
		dw := make(map[string]time.Duration, len(st.Dwell))
		for room, d := range st.Dwell {
			dw[room] = d
		}
		t.dwell[st.Device] = dw
	} else {
		delete(t.dwell, st.Device)
	}
}

// IdleBefore returns, sorted, every device whose last observation is
// older than cutoff — what ExpireBefore evicts — and changes nothing.
func (t *Tracker) IdleBefore(cutoff time.Duration) []string {
	var out []string
	for device, last := range t.lastAt {
		if last < cutoff {
			out = append(out, device)
		}
	}
	sort.Strings(out)
	return out
}

package bms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"occusim/internal/occupancy"
	"occusim/internal/wire"
)

// RoomRollup is one room's slice of the occupancy rollup.
type RoomRollup struct {
	// Occupants is the current head count.
	Occupants int `json:"occupants"`
	// Enters and Exits count committed transitions over the building's
	// lifetime.
	Enters int `json:"enters"`
	Exits  int `json:"exits"`
	// DwellSeconds is the total time devices have spent in the room.
	DwellSeconds float64 `json:"dwellSeconds"`
}

// Rollup is the live building-level occupancy view the smart-building
// controllers consume: who-is-where collapsed to per-room aggregates.
// One server and a fleet gateway both answer GET /api/v1/rollup with
// these fields, rendered by RenderRollup and written by its MarshalJSON
// (replyjson.go).
type Rollup struct {
	// Devices is the tracked device count.
	Devices int `json:"devices"`
	// Events is the committed event count.
	Events int `json:"events"`
	// Rooms maps room name to its aggregates.
	Rooms map[string]RoomRollup `json:"rooms"`
}

// RenderOccupancy is the head counts and device rooms of sum. Rooms
// nobody is in are absent. The snapshot shares sum's device map. With
// RenderDwell and RenderRollup it is one of the three renderings of an
// occupancy.Summary, shared by the single server and the fleet gateway —
// which renders its shards' merged summaries — so the two faces cannot
// drift.
func RenderOccupancy(sum occupancy.Summary) OccupancySnapshot {
	snap := OccupancySnapshot{Rooms: make(map[string]int, len(sum.Rooms)), Devices: sum.Devices}
	for room, r := range sum.Rooms {
		if r.Occupants > 0 {
			snap.Rooms[room] = r.Occupants
		}
	}
	return snap
}

// RenderDwell is the per-room dwell of sum. Rooms nobody has dwelt in
// are absent.
func RenderDwell(sum occupancy.Summary) map[string]time.Duration {
	out := make(map[string]time.Duration, len(sum.Rooms))
	for room, r := range sum.Rooms {
		if r.Dwell != 0 {
			out[room] = r.Dwell
		}
	}
	return out
}

// RenderRollup is the public rollup of sum.
func RenderRollup(sum occupancy.Summary) Rollup {
	out := Rollup{Devices: len(sum.Devices), Events: sum.Events, Rooms: make(map[string]RoomRollup, len(sum.Rooms))}
	for room, r := range sum.Rooms {
		out.Rooms[room] = RoomRollup{
			Occupants:    r.Occupants,
			Enters:       r.Enters,
			Exits:        r.Exits,
			DwellSeconds: r.Dwell.Seconds(),
		}
	}
	return out
}

// Summary returns the server's rollup state from one pass over the
// tracker: device rooms, head counts, event count, per-room transition
// tallies and dwell.
func (s *Server) Summary() occupancy.Summary {
	return s.tracker.Summary()
}

// AppendSummary appends sum in the form a shard answers a gateway's
// rollup read (wire.StreamRollup) with: the event count; per room, its
// name, occupants, enters, exits and dwell in nanoseconds; then per
// device, its name and room. Counts and name lengths are uvarints and
// each int is the uvarint of its bits, so any value round-trips — dwell
// included, so summing shards at the gateway rounds nothing. Its size
// follows rooms + devices, whatever the event history's length. Map
// order is not part of the form.
func AppendSummary(dst []byte, sum occupancy.Summary) []byte {
	dst = binary.AppendUvarint(dst, uint64(sum.Events))
	dst = binary.AppendUvarint(dst, uint64(len(sum.Rooms)))
	for room, r := range sum.Rooms {
		dst = appendName(dst, room)
		dst = binary.AppendUvarint(dst, uint64(r.Occupants))
		dst = binary.AppendUvarint(dst, uint64(r.Enters))
		dst = binary.AppendUvarint(dst, uint64(r.Exits))
		dst = binary.AppendUvarint(dst, uint64(r.Dwell))
	}
	dst = binary.AppendUvarint(dst, uint64(len(sum.Devices)))
	for dev, room := range sum.Devices {
		dst = appendName(appendName(dst, dev), room)
	}
	return dst
}

func appendName(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// The shortest room and device entries: empty names, zero ints. A count
// the bytes after it cannot hold that many of is refused, so a peer's
// count never sizes a map past what its reply carries.
const minRoomEntry, minDeviceEntry = 5, 2

// internPool holds the interners a parse names devices and rooms
// through, one per concurrent read, so a recurring population costs no
// string per read.
var internPool = sync.Pool{New: func() any { return wire.Interner{} }}

// errShortSummary is a summary cut short: an entry, or a count, the
// bytes end inside.
var errShortSummary = errors.New("bms: truncated summary")

// ParseSummary reads what AppendSummary wrote into maps sized from its
// counts, names interned. A short entry, a count the remaining bytes
// cannot hold or a trailing byte is an error.
func ParseSummary(body []byte) (occupancy.Summary, error) {
	names := internPool.Get().(wire.Interner)
	defer internPool.Put(names)
	r := wire.Reader{Buf: body}
	events := r.Uvarint()
	rooms, err := entryCount(&r, "room", minRoomEntry)
	if err != nil {
		return occupancy.Summary{}, err
	}
	sum := occupancy.Summary{Events: int(events), Rooms: make(map[string]occupancy.RoomSummary, rooms)}
	for ; rooms > 0 && !r.Short; rooms-- {
		room := r.String(names)
		occupants, enters, exits, dwell := r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
		sum.Rooms[room] = occupancy.RoomSummary{
			Occupants: int(occupants),
			Tally:     occupancy.Tally{Enters: int(enters), Exits: int(exits)},
			Dwell:     time.Duration(dwell),
		}
	}
	devices, err := entryCount(&r, "device", minDeviceEntry)
	if err != nil {
		return occupancy.Summary{}, err
	}
	sum.Devices = make(map[string]string, devices)
	for ; devices > 0 && !r.Short; devices-- {
		dev := r.String(names)
		sum.Devices[dev] = r.String(names)
	}
	switch {
	case r.Short:
		return occupancy.Summary{}, errShortSummary
	case len(r.Buf) != 0:
		return occupancy.Summary{}, fmt.Errorf("bms: %d trailing bytes after a summary", len(r.Buf))
	}
	return sum, nil
}

// entryCount reads a map's entry count, refusing one the bytes left
// cannot hold that many entries of at least size bytes for.
func entryCount(r *wire.Reader, what string, size int) (int, error) {
	n := r.Uvarint()
	switch {
	case r.Short:
		return 0, errShortSummary
	case n > uint64(len(r.Buf)/size):
		return 0, fmt.Errorf("bms: summary %s count %d exceeds its %d bytes", what, n, len(r.Buf))
	}
	return int(n), nil
}

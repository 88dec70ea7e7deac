package bms

import (
	"time"

	"occusim/internal/occupancy"
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

// ShardRollup is what a shard answers a gateway's rollup read
// (wire.StreamRollup) with on the gateway's stream: the public rollup
// plus what a federating gateway needs to merge shards exactly — the
// device names (so a device two shards both still track counts once)
// and dwell as integer nanoseconds (so summing shards rounds nothing).
// Its size follows rooms + devices, whatever the event history's length.
// It writes and parses itself (replyjson.go), so a gateway's read
// allocates per room, not per device.
type ShardRollup struct {
	Rollup
	DeviceRooms map[string]string        `json:"deviceRooms"`
	DwellNanos  map[string]time.Duration `json:"dwellNanos"`
}

// NewShardRollup renders a summary into its wire form.
func NewShardRollup(sum occupancy.Summary) ShardRollup {
	out := ShardRollup{
		Rollup:      RenderRollup(sum),
		DeviceRooms: sum.Devices,
		DwellNanos:  make(map[string]time.Duration, len(sum.Rooms)),
	}
	for room, r := range sum.Rooms {
		out.DwellNanos[room] = r.Dwell
	}
	return out
}

// Summary recovers the summary a ShardRollup was rendered from.
func (sr ShardRollup) Summary() occupancy.Summary {
	sum := occupancy.Summary{
		Devices: sr.DeviceRooms,
		Events:  sr.Events,
		Rooms:   make(map[string]occupancy.RoomSummary, len(sr.Rooms)),
	}
	for room, r := range sr.Rooms {
		sum.Rooms[room] = occupancy.RoomSummary{
			Occupants: r.Occupants,
			Tally:     occupancy.Tally{Enters: r.Enters, Exits: r.Exits},
			Dwell:     sr.DwellNanos[room],
		}
	}
	return sum
}

// Summary returns the server's rollup state from one pass over the
// tracker: device rooms, head counts, event count, per-room transition
// tallies and dwell.
func (s *Server) Summary() occupancy.Summary {
	return s.tracker.Summary()
}

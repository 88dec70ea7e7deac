// Package building models the instrumented smart building: rooms, walls,
// floors and the placement of iBeacon transmitters. It provides the
// ground-truth room lookup used to label fingerprints and to score the
// classifiers, plus pre-built floor plans for the paper's experiments.
package building

import (
	"errors"
	"fmt"

	"occusim/internal/geom"
	"occusim/internal/ibeacon"
)

// Outside is the room label for positions not inside any room. The
// classification experiments treat it as its own class, because the paper
// distinguishes "user inside the room" from "user outside" when counting
// false positives and negatives.
const Outside = "outside"

// Room is a named area of the floor plan.
type Room struct {
	// Name is the room label used as the classification target.
	Name string
	// Bounds is the room footprint.
	Bounds geom.Rect
}

// Contains reports whether p is inside the room.
func (r Room) Contains(p geom.Point) bool { return r.Bounds.Contains(p) }

// Beacon is an installed iBeacon transmitter: the Raspberry Pi + dongle
// board of Section IV.A, reduced to the properties the client can
// observe.
type Beacon struct {
	// ID is the (UUID, major, minor) identity broadcast by the board.
	ID ibeacon.BeaconID
	// MeasuredPower is the calibrated RSSI at 1 m carried in the
	// advertisement.
	MeasuredPower int8
	// TxPowerDBm is the actual radiated power driving the channel model.
	// After a good calibration MeasuredPower ≈ RSSI observed at 1 m, but
	// the two are distinct: calibration error is a real effect the
	// experiments can explore.
	TxPowerDBm float64
	// Pos is the mounting position.
	Pos geom.Point
	// Room is the name of the room the beacon serves.
	Room string
}

// Packet returns the advertisement payload the beacon broadcasts.
func (b Beacon) Packet() ibeacon.Packet {
	return ibeacon.Packet{
		UUID:          b.ID.UUID,
		Major:         b.ID.Major,
		Minor:         b.ID.Minor,
		MeasuredPower: b.MeasuredPower,
	}
}

// Building is one instrumented floor.
type Building struct {
	Name    string
	Rooms   []Room
	Walls   []geom.Segment
	Beacons []Beacon
}

// Validate checks structural consistency: unique room names, unique
// beacon identities, and beacons referencing existing rooms.
func (b *Building) Validate() error {
	rooms := make(map[string]bool, len(b.Rooms))
	for _, r := range b.Rooms {
		if r.Name == "" {
			return errors.New("building: room with empty name")
		}
		if r.Name == Outside {
			return fmt.Errorf("building: room name %q is reserved", Outside)
		}
		if rooms[r.Name] {
			return fmt.Errorf("building: duplicate room %q", r.Name)
		}
		if r.Bounds.Area() <= 0 {
			return fmt.Errorf("building: room %q has empty bounds", r.Name)
		}
		rooms[r.Name] = true
	}
	ids := make(map[ibeacon.BeaconID]bool, len(b.Beacons))
	for _, bc := range b.Beacons {
		if ids[bc.ID] {
			return fmt.Errorf("building: duplicate beacon %v", bc.ID)
		}
		ids[bc.ID] = true
		if bc.Room != "" && !rooms[bc.Room] {
			return fmt.Errorf("building: beacon %v references unknown room %q", bc.ID, bc.Room)
		}
	}
	return nil
}

// RoomAt returns the name of the room containing p, or Outside. When
// rooms overlap (they should not), the first declared room wins.
func (b *Building) RoomAt(p geom.Point) string {
	for _, r := range b.Rooms {
		if r.Contains(p) {
			return r.Name
		}
	}
	return Outside
}

// RoomByName returns the named room.
func (b *Building) RoomByName(name string) (Room, bool) {
	for _, r := range b.Rooms {
		if r.Name == name {
			return r, true
		}
	}
	return Room{}, false
}

// BeaconsInRoom returns the beacons mounted in the named room.
func (b *Building) BeaconsInRoom(room string) []Beacon {
	var out []Beacon
	for _, bc := range b.Beacons {
		if bc.Room == room {
			out = append(out, bc)
		}
	}
	return out
}

// RoomNames returns the room labels in declaration order.
func (b *Building) RoomNames() []string {
	names := make([]string, len(b.Rooms))
	for i, r := range b.Rooms {
		names[i] = r.Name
	}
	return names
}

// ClassLabels returns the classification label set: every room plus
// Outside.
func (b *Building) ClassLabels() []string {
	return append(b.RoomNames(), Outside)
}

// Bounds returns the axis-aligned bounding box of all rooms. A building
// with no rooms has a zero bounds.
func (b *Building) Bounds() geom.Rect {
	if len(b.Rooms) == 0 {
		return geom.Rect{}
	}
	out := b.Rooms[0].Bounds
	for _, r := range b.Rooms[1:] {
		if r.Bounds.Min.X < out.Min.X {
			out.Min.X = r.Bounds.Min.X
		}
		if r.Bounds.Min.Y < out.Min.Y {
			out.Min.Y = r.Bounds.Min.Y
		}
		if r.Bounds.Max.X > out.Max.X {
			out.Max.X = r.Bounds.Max.X
		}
		if r.Bounds.Max.Y > out.Max.Y {
			out.Max.Y = r.Bounds.Max.Y
		}
	}
	return out
}

// WallWithDoor returns the segments of a straight wall from a to b with a
// centred door gap of the given width. A doorWidth <= 0 or wider than the
// wall yields the full wall or no wall respectively.
func WallWithDoor(a, b geom.Point, doorWidth float64) []geom.Segment {
	length := a.Dist(b)
	if doorWidth <= 0 {
		return []geom.Segment{geom.Seg(a, b)}
	}
	if doorWidth >= length {
		return nil
	}
	t0 := (length - doorWidth) / 2 / length
	t1 := (length + doorWidth) / 2 / length
	return []geom.Segment{
		geom.Seg(a, a.Lerp(b, t0)),
		geom.Seg(a.Lerp(b, t1), b),
	}
}

package building

import (
	"fmt"

	"occusim/internal/geom"
	"occusim/internal/ibeacon"
)

// DeploymentUUID is the proximity UUID shared by every beacon in the
// pre-built floor plans, playing the role of the organisation UUID the
// paper configures on both the transmitters and the app.
var DeploymentUUID = ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001")

// DefaultMeasuredPower is the calibrated RSSI at 1 m used by the
// pre-built plans (a typical value for a CSR dongle at 0 dBm output).
const DefaultMeasuredPower = -59

// beacon builds a beacon with sequential minor numbers under major.
func beacon(major, minor uint16, pos geom.Point, room string) Beacon {
	return Beacon{
		ID:            ibeacon.BeaconID{UUID: DeploymentUUID, Major: major, Minor: minor},
		MeasuredPower: DefaultMeasuredPower,
		TxPowerDBm:    DefaultMeasuredPower,
		Pos:           pos,
		Room:          room,
	}
}

// SingleRoom returns a 6×6 m room with one beacon against the west wall,
// the setup of the paper's static signal tests (Figures 4–6): a device is
// placed D metres from the transmitter and samples are recorded.
func SingleRoom() *Building {
	b := &Building{
		Name: "single-room",
		Rooms: []Room{
			{Name: "lab", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(6, 6))},
		},
		Beacons: []Beacon{
			beacon(1, 1, geom.Pt(0.5, 3), "lab"),
		},
	}
	r := b.Rooms[0].Bounds
	for _, e := range r.Edges() {
		b.Walls = append(b.Walls, e)
	}
	return b
}

// TwoBeaconCorridor returns a 14×2.4 m corridor with a beacon at each
// end, the setup of the dynamic tests (Figures 7–8): the device moves
// from one transmitter to the other at 1–1.5 m/s.
func TwoBeaconCorridor() *Building {
	b := &Building{
		Name: "two-beacon-corridor",
		Rooms: []Room{
			{Name: "corridor", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(14, 2.4))},
		},
		Beacons: []Beacon{
			beacon(1, 1, geom.Pt(0.5, 1.2), "corridor"),
			beacon(1, 2, geom.Pt(13.5, 1.2), "corridor"),
		},
	}
	r := b.Rooms[0].Bounds
	for _, e := range r.Edges() {
		b.Walls = append(b.Walls, e)
	}
	return b
}

// PaperHouse returns the residential floor plan of the classification
// experiment (Section VI: "we asked a user to move within a house"): six
// rooms, interior walls with door gaps, one beacon per room mounted on a
// wall.
//
//	+--------+--------+--------+
//	| bedroom| bath   | hallway|   y: 4..8
//	+--------+--------+--------+
//	| kitchen| living | study  |   y: 0..4
//	+--------+--------+--------+
//	  x: 0..4  4..8     8..12
func PaperHouse() *Building {
	b := &Building{
		Name: "paper-house",
		Rooms: []Room{
			{Name: "kitchen", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(4, 4))},
			{Name: "living", Bounds: geom.NewRect(geom.Pt(4, 0), geom.Pt(8, 4))},
			{Name: "study", Bounds: geom.NewRect(geom.Pt(8, 0), geom.Pt(12, 4))},
			{Name: "bedroom", Bounds: geom.NewRect(geom.Pt(0, 4), geom.Pt(4, 8))},
			{Name: "bathroom", Bounds: geom.NewRect(geom.Pt(4, 4), geom.Pt(8, 8))},
			{Name: "hallway", Bounds: geom.NewRect(geom.Pt(8, 4), geom.Pt(12, 8))},
		},
	}

	const door = 0.9
	// Exterior shell with the entrance on the hallway's east wall.
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 0), geom.Pt(12, 0)))               // south
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 8), geom.Pt(12, 8)))               // north
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 0), geom.Pt(0, 8)))                // west
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(12, 4), geom.Pt(12, 8), door)...) // east upper (entrance)
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(12, 0), geom.Pt(12, 4)))              // east lower

	// Interior verticals, each with a door.
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(4, 0), geom.Pt(4, 4), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(8, 0), geom.Pt(8, 4), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(4, 4), geom.Pt(4, 8), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(8, 4), geom.Pt(8, 8), door)...)
	// Interior horizontals, each with a door.
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(0, 4), geom.Pt(4, 4), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(4, 4), geom.Pt(8, 4), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(8, 4), geom.Pt(12, 4), door)...)

	// One beacon per room, mounted near a wall as in a real install.
	b.Beacons = []Beacon{
		beacon(1, 1, geom.Pt(0.4, 2.0), "kitchen"),
		beacon(1, 2, geom.Pt(6.0, 0.4), "living"),
		beacon(1, 3, geom.Pt(11.6, 2.0), "study"),
		beacon(1, 4, geom.Pt(0.4, 6.0), "bedroom"),
		beacon(1, 5, geom.Pt(6.0, 7.6), "bathroom"),
		beacon(1, 6, geom.Pt(10.0, 7.6), "hallway"),
	}
	return b
}

// OfficeFloor returns a commercial office floor: six cellular offices, a
// corridor, an open space and a meeting room. It is the workload for the
// HVAC demand-response example motivated in the paper's introduction.
func OfficeFloor() *Building {
	b := &Building{
		Name: "office-floor",
		Rooms: []Room{
			{Name: "office-1", Bounds: geom.NewRect(geom.Pt(0, 11), geom.Pt(4, 16))},
			{Name: "office-2", Bounds: geom.NewRect(geom.Pt(4, 11), geom.Pt(8, 16))},
			{Name: "office-3", Bounds: geom.NewRect(geom.Pt(8, 11), geom.Pt(12, 16))},
			{Name: "office-4", Bounds: geom.NewRect(geom.Pt(12, 11), geom.Pt(16, 16))},
			{Name: "office-5", Bounds: geom.NewRect(geom.Pt(16, 11), geom.Pt(20, 16))},
			{Name: "office-6", Bounds: geom.NewRect(geom.Pt(20, 11), geom.Pt(24, 16))},
			{Name: "corridor", Bounds: geom.NewRect(geom.Pt(0, 8), geom.Pt(24, 11))},
			{Name: "open-space", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(16, 8))},
			{Name: "meeting", Bounds: geom.NewRect(geom.Pt(16, 0), geom.Pt(24, 8))},
		},
	}

	const door = 1.0
	// Exterior shell.
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 0), geom.Pt(24, 0)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 16), geom.Pt(24, 16)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 0), geom.Pt(0, 16)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(24, 0), geom.Pt(24, 16)))
	// Office dividers.
	for x := 4.0; x <= 20; x += 4 {
		b.Walls = append(b.Walls, geom.Seg(geom.Pt(x, 11), geom.Pt(x, 16)))
	}
	// Office fronts onto the corridor (each with a door).
	for x := 0.0; x < 24; x += 4 {
		b.Walls = append(b.Walls, WallWithDoor(geom.Pt(x, 11), geom.Pt(x+4, 11), door)...)
	}
	// Corridor to open space / meeting.
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(0, 8), geom.Pt(16, 8), 2*door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(16, 8), geom.Pt(24, 8), door)...)
	// Open space / meeting divider.
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(16, 0), geom.Pt(16, 8), door)...)

	minor := uint16(1)
	add := func(pos geom.Point, room string) {
		b.Beacons = append(b.Beacons, beacon(2, minor, pos, room))
		minor++
	}
	add(geom.Pt(2, 15.6), "office-1")
	add(geom.Pt(6, 15.6), "office-2")
	add(geom.Pt(10, 15.6), "office-3")
	add(geom.Pt(14, 15.6), "office-4")
	add(geom.Pt(18, 15.6), "office-5")
	add(geom.Pt(22, 15.6), "office-6")
	add(geom.Pt(12, 9.5), "corridor")
	add(geom.Pt(4, 0.4), "open-space")
	add(geom.Pt(12, 0.4), "open-space")
	add(geom.Pt(20, 0.4), "meeting")
	return b
}

// Campus returns a two-hall campus joined by an outdoor walkway — the
// multi-building deployment the fleet layer federates over. Each hall
// gets its own iBeacon major (3 and 4), the convention the paper
// suggests for telling buildings apart under one organisation UUID. The
// walkway is a room of its own so a device crossing between halls stays
// tracked rather than flickering to "unknown".
//
//	+----------+----------+           +----------+----------+
//	| lecture  | lab      |           | office   | seminar  |  y: 5..10
//	+----------+----------+==walkway==+----------+----------+
//	| lobby-a  | study-a  |           | lobby-b  | canteen  |  y: 0..5
//	+----------+----------+           +----------+----------+
//	  x: 0..6    6..12      12..20      20..26     26..32
func Campus() *Building {
	b := &Building{
		Name: "campus",
		Rooms: []Room{
			// Hall A.
			{Name: "a-lobby", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(6, 5))},
			{Name: "a-study", Bounds: geom.NewRect(geom.Pt(6, 0), geom.Pt(12, 5))},
			{Name: "a-lecture", Bounds: geom.NewRect(geom.Pt(0, 5), geom.Pt(6, 10))},
			{Name: "a-lab", Bounds: geom.NewRect(geom.Pt(6, 5), geom.Pt(12, 10))},
			// Covered walkway between the halls.
			{Name: "walkway", Bounds: geom.NewRect(geom.Pt(12, 4), geom.Pt(20, 6))},
			// Hall B.
			{Name: "b-lobby", Bounds: geom.NewRect(geom.Pt(20, 0), geom.Pt(26, 5))},
			{Name: "b-canteen", Bounds: geom.NewRect(geom.Pt(26, 0), geom.Pt(32, 5))},
			{Name: "b-office", Bounds: geom.NewRect(geom.Pt(20, 5), geom.Pt(26, 10))},
			{Name: "b-seminar", Bounds: geom.NewRect(geom.Pt(26, 5), geom.Pt(32, 10))},
		},
	}

	const door = 1.0
	// Hall A shell; the walkway door punches the east wall.
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 0), geom.Pt(12, 0)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 10), geom.Pt(12, 10)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(0, 0), geom.Pt(0, 10)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(12, 0), geom.Pt(12, 4)))
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(12, 4), geom.Pt(12, 6), door)...)
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(12, 6), geom.Pt(12, 10)))
	// Hall A interior.
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(6, 0), geom.Pt(6, 10), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(0, 5), geom.Pt(6, 5), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(6, 5), geom.Pt(12, 5), door)...)

	// Walkway side rails (open ends at the hall doors).
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(12, 4), geom.Pt(20, 4)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(12, 6), geom.Pt(20, 6)))

	// Hall B shell; the walkway door punches the west wall.
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(20, 0), geom.Pt(32, 0)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(20, 10), geom.Pt(32, 10)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(32, 0), geom.Pt(32, 10)))
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(20, 0), geom.Pt(20, 4)))
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(20, 4), geom.Pt(20, 6), door)...)
	b.Walls = append(b.Walls, geom.Seg(geom.Pt(20, 6), geom.Pt(20, 10)))
	// Hall B interior.
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(26, 0), geom.Pt(26, 10), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(20, 5), geom.Pt(26, 5), door)...)
	b.Walls = append(b.Walls, WallWithDoor(geom.Pt(26, 5), geom.Pt(32, 5), door)...)

	// Hall A beacons under major 3, hall B under major 4; the walkway
	// belongs to hall A's install.
	b.Beacons = []Beacon{
		beacon(3, 1, geom.Pt(0.4, 2.5), "a-lobby"),
		beacon(3, 2, geom.Pt(11.6, 2.5), "a-study"),
		beacon(3, 3, geom.Pt(0.4, 7.5), "a-lecture"),
		beacon(3, 4, geom.Pt(11.6, 7.5), "a-lab"),
		beacon(3, 5, geom.Pt(16.0, 4.2), "walkway"),
		beacon(4, 1, geom.Pt(20.4, 2.5), "b-lobby"),
		beacon(4, 2, geom.Pt(31.6, 2.5), "b-canteen"),
		beacon(4, 3, geom.Pt(20.4, 7.5), "b-office"),
		beacon(4, 4, geom.Pt(31.6, 7.5), "b-seminar"),
	}
	return b
}

// ByName resolves a pre-built floor plan by its CLI name — the one
// switch every command shares, so adding a plan means adding it here
// once.
func ByName(name string) (*Building, error) {
	switch name {
	case "paper-house":
		return PaperHouse(), nil
	case "office-floor":
		return OfficeFloor(), nil
	case "single-room":
		return SingleRoom(), nil
	case "corridor":
		return TwoBeaconCorridor(), nil
	case "campus":
		return Campus(), nil
	default:
		return nil, fmt.Errorf("building: unknown plan %q (want paper-house, office-floor, single-room, corridor or campus)", name)
	}
}

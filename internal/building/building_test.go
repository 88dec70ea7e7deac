package building

import (
	"testing"
	"testing/quick"

	"occusim/internal/geom"
	"occusim/internal/ibeacon"
)

func TestValidateCatchesDuplicates(t *testing.T) {
	b := &Building{
		Rooms: []Room{
			{Name: "a", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))},
			{Name: "a", Bounds: geom.NewRect(geom.Pt(1, 0), geom.Pt(2, 1))},
		},
	}
	if err := b.Validate(); err == nil {
		t.Error("duplicate room should fail validation")
	}

	id := ibeacon.BeaconID{UUID: DeploymentUUID, Major: 1, Minor: 1}
	b2 := &Building{
		Rooms:   []Room{{Name: "a", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))}},
		Beacons: []Beacon{{ID: id, Room: "a"}, {ID: id, Room: "a"}},
	}
	if err := b2.Validate(); err == nil {
		t.Error("duplicate beacon should fail validation")
	}
}

func TestValidateCatchesBadRooms(t *testing.T) {
	cases := []*Building{
		{Rooms: []Room{{Name: "", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))}}},
		{Rooms: []Room{{Name: Outside, Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))}}},
		{Rooms: []Room{{Name: "flat", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(0, 1))}}},
		{
			Rooms:   []Room{{Name: "a", Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))}},
			Beacons: []Beacon{{ID: ibeacon.BeaconID{}, Room: "ghost"}},
		},
	}
	for i, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestRoomAt(t *testing.T) {
	h := PaperHouse()
	cases := []struct {
		p    geom.Point
		want string
	}{
		{geom.Pt(2, 2), "kitchen"},
		{geom.Pt(6, 2), "living"},
		{geom.Pt(10, 2), "study"},
		{geom.Pt(2, 6), "bedroom"},
		{geom.Pt(6, 6), "bathroom"},
		{geom.Pt(10, 6), "hallway"},
		{geom.Pt(20, 20), Outside},
		{geom.Pt(-1, 2), Outside},
	}
	for _, c := range cases {
		if got := h.RoomAt(c.p); got != c.want {
			t.Errorf("RoomAt(%v) = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestLookups(t *testing.T) {
	h := PaperHouse()
	if _, ok := h.RoomByName("kitchen"); !ok {
		t.Error("kitchen not found")
	}
	if _, ok := h.RoomByName("garage"); ok {
		t.Error("garage should not exist")
	}
	if got := h.BeaconsInRoom("kitchen"); len(got) != 1 {
		t.Errorf("kitchen beacons = %d", len(got))
	}
	if got := h.BeaconsInRoom("nowhere"); got != nil {
		t.Errorf("unknown room beacons = %v", got)
	}
}

func TestClassLabels(t *testing.T) {
	h := PaperHouse()
	labels := h.ClassLabels()
	if len(labels) != len(h.Rooms)+1 {
		t.Fatalf("labels = %v", labels)
	}
	if labels[len(labels)-1] != Outside {
		t.Fatalf("last label = %q", labels[len(labels)-1])
	}
}

func TestBounds(t *testing.T) {
	h := PaperHouse()
	b := h.Bounds()
	if b.Min != geom.Pt(0, 0) || b.Max != geom.Pt(12, 8) {
		t.Fatalf("bounds = %+v", b)
	}
	var empty Building
	if got := empty.Bounds(); got.Area() != 0 {
		t.Fatalf("empty building bounds = %+v", got)
	}
}

func TestWallWithDoor(t *testing.T) {
	segs := WallWithDoor(geom.Pt(0, 0), geom.Pt(10, 0), 2)
	if len(segs) != 2 {
		t.Fatalf("segments = %d", len(segs))
	}
	total := segs[0].A.Dist(segs[0].B) + segs[1].A.Dist(segs[1].B)
	if total != 8 {
		t.Errorf("wall length = %v, want 8", total)
	}
	// A path through the door centre must not cross.
	if n := geom.CrossingCount(geom.Pt(5, -1), geom.Pt(5, 1), segs); n != 0 {
		t.Errorf("door centre crossings = %d", n)
	}
	// A path through the solid part must cross.
	if n := geom.CrossingCount(geom.Pt(1, -1), geom.Pt(1, 1), segs); n != 1 {
		t.Errorf("solid wall crossings = %d", n)
	}
	// Degenerate cases.
	if got := WallWithDoor(geom.Pt(0, 0), geom.Pt(10, 0), 0); len(got) != 1 {
		t.Errorf("no-door wall = %v", got)
	}
	if got := WallWithDoor(geom.Pt(0, 0), geom.Pt(1, 0), 5); got != nil {
		t.Errorf("door wider than wall = %v", got)
	}
}

func TestPrebuiltPlansAreValid(t *testing.T) {
	for _, b := range []*Building{SingleRoom(), TwoBeaconCorridor(), PaperHouse(), OfficeFloor(), Campus()} {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if len(b.Beacons) == 0 {
			t.Errorf("%s: no beacons", b.Name)
		}
		for _, bc := range b.Beacons {
			if bc.Room != "" {
				room, ok := b.RoomByName(bc.Room)
				if !ok {
					t.Errorf("%s: beacon %v in unknown room", b.Name, bc.ID)
					continue
				}
				if !room.Contains(bc.Pos) {
					t.Errorf("%s: beacon %v at %v outside its room %q", b.Name, bc.ID, bc.Pos, bc.Room)
				}
			}
		}
	}
}

func TestPaperHouseBeaconRoomsMatchPositions(t *testing.T) {
	h := PaperHouse()
	for _, bc := range h.Beacons {
		if got := h.RoomAt(bc.Pos); got != bc.Room {
			t.Errorf("beacon %v: RoomAt(%v) = %q, want %q", bc.ID, bc.Pos, got, bc.Room)
		}
	}
}

func TestOfficeFloorHasSharedOpenSpaceBeacons(t *testing.T) {
	o := OfficeFloor()
	if got := len(o.BeaconsInRoom("open-space")); got != 2 {
		t.Fatalf("open-space beacons = %d, want 2", got)
	}
}

// TestCampusSpansTwoMajors pins the multi-building convention: hall A
// installs under major 3, hall B under major 4, one shared UUID.
func TestCampusSpansTwoMajors(t *testing.T) {
	c := Campus()
	majors := map[uint16]int{}
	for _, bc := range c.Beacons {
		majors[bc.ID.Major]++
	}
	if len(majors) != 2 || majors[3] == 0 || majors[4] == 0 {
		t.Fatalf("campus majors = %v, want beacons under both 3 and 4", majors)
	}
	if _, err := ByName("campus"); err != nil {
		t.Fatalf("ByName(campus): %v", err)
	}
	for _, bc := range c.Beacons {
		if got := c.RoomAt(bc.Pos); got != bc.Room {
			t.Errorf("beacon %v: RoomAt(%v) = %q, want %q", bc.ID, bc.Pos, got, bc.Room)
		}
	}
}

// Property: RoomAt of any point inside a room's bounds returns either
// that room or an earlier-declared overlapping room, never Outside.
func TestQuickRoomAtConsistent(t *testing.T) {
	h := PaperHouse()
	f := func(ri uint8, fx, fy float64) bool {
		r := h.Rooms[int(ri)%len(h.Rooms)]
		// Map (fx, fy) into the room interior.
		frac := func(v float64) float64 {
			if v != v || v > 1e15 || v < -1e15 { // NaN or out of int64 range
				return 0.5
			}
			v = v - float64(int64(v))
			if v < 0 {
				v++
			}
			return v
		}
		p := geom.Pt(
			r.Bounds.Min.X+frac(fx)*r.Bounds.Width(),
			r.Bounds.Min.Y+frac(fy)*r.Bounds.Height(),
		)
		return h.RoomAt(p) != Outside
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

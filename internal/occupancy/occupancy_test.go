package occupancy

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// summary is the tracker's rollup as Sharded.Summary folds it.
func summary(tr *Tracker) Summary {
	sum := NewSummary(0, 0)
	tr.addTo(&sum)
	return sum
}

// dwellTotals is a summary's dwell per room, rooms without any left out.
func dwellTotals(sum Summary) map[string]time.Duration {
	out := map[string]time.Duration{}
	for room, r := range sum.Rooms {
		if r.Dwell != 0 {
			out[room] = r.Dwell
		}
	}
	return out
}

// observeOne feeds s one classification.
func observeOne(s *Sharded, at time.Duration, device, room string) []Event {
	return s.ObserveBatch([]Classification{{At: at, Device: device, Room: room}})
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0); err == nil {
		t.Fatal("debounce 0 should fail")
	}
	if _, err := NewTracker(1); err != nil {
		t.Fatal(err)
	}
}

func TestImmediateCommitWithDebounceOne(t *testing.T) {
	tr, _ := NewTracker(1)
	events := tr.Observe(sec(1), "phone", "kitchen")
	if len(events) != 1 || events[0].Kind != Enter || events[0].Room != "kitchen" {
		t.Fatalf("events = %+v", events)
	}
	if tr.RoomOf("phone") != "kitchen" {
		t.Fatalf("room = %q", tr.RoomOf("phone"))
	}
}

func TestDebounceSuppressesFlicker(t *testing.T) {
	tr, _ := NewTracker(2)
	tr.Observe(sec(0), "phone", "kitchen")
	tr.Observe(sec(1), "phone", "kitchen") // committed after 2
	if tr.RoomOf("phone") != "kitchen" {
		t.Fatal("kitchen not committed")
	}
	// A single flicker to living must not transition.
	if ev := tr.Observe(sec(2), "phone", "living"); ev != nil {
		t.Fatalf("flicker committed: %+v", ev)
	}
	if tr.RoomOf("phone") != "kitchen" {
		t.Fatal("flicker changed committed room")
	}
	// Returning to kitchen clears the pending transition.
	tr.Observe(sec(3), "phone", "kitchen")
	if ev := tr.Observe(sec(4), "phone", "living"); ev != nil {
		t.Fatal("pending state survived confirmation")
	}
	// Two consecutive living observations commit.
	events := tr.Observe(sec(5), "phone", "living")
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Kind != Exit || events[0].Room != "kitchen" {
		t.Fatalf("exit event = %+v", events[0])
	}
	if events[1].Kind != Enter || events[1].Room != "living" {
		t.Fatalf("enter event = %+v", events[1])
	}
}

func TestPendingRoomChangeResetsCount(t *testing.T) {
	tr, _ := NewTracker(3)
	tr.Observe(sec(0), "p", "a")
	tr.Observe(sec(1), "p", "a")
	tr.Observe(sec(2), "p", "a") // committed a
	tr.Observe(sec(3), "p", "b")
	tr.Observe(sec(4), "p", "c") // pending switches to c with count 1
	tr.Observe(sec(5), "p", "c")
	if ev := tr.Observe(sec(6), "p", "c"); len(ev) != 2 {
		t.Fatalf("c should commit on third consecutive: %+v", ev)
	}
}

func TestOccupantsAndCounts(t *testing.T) {
	tr, _ := NewTracker(1)
	tr.Observe(sec(0), "bob", "kitchen")
	tr.Observe(sec(0), "alice", "kitchen")
	tr.Observe(sec(0), "carol", "living")
	sum := summary(tr)
	if want := map[string]string{"alice": "kitchen", "bob": "kitchen", "carol": "living"}; !reflect.DeepEqual(sum.Devices, want) {
		t.Fatalf("occupants = %v, want %v", sum.Devices, want)
	}
	if sum.Rooms["kitchen"].Occupants != 2 || sum.Rooms["living"].Occupants != 1 {
		t.Fatalf("counts = %+v", sum.Rooms)
	}
}

func TestDwellAccounting(t *testing.T) {
	tr, _ := NewTracker(1)
	tr.Observe(sec(0), "p", "kitchen")
	tr.Observe(sec(10), "p", "kitchen")
	tr.Observe(sec(15), "p", "living")
	tr.Observe(sec(25), "p", "living")
	st, _ := tr.Export("p")
	d := st.Dwell
	// 0→10 and 10→15 in kitchen (transition is charged to the room the
	// device was committed to during the interval), 15→25 in living.
	if d["kitchen"] != sec(15) {
		t.Fatalf("kitchen dwell = %v", d["kitchen"])
	}
	if d["living"] != sec(10) {
		t.Fatalf("living dwell = %v", d["living"])
	}
}

func TestEventsAccumulate(t *testing.T) {
	tr, _ := NewTracker(1)
	tr.Observe(sec(0), "p", "a")
	tr.Observe(sec(1), "p", "b")
	tr.Observe(sec(2), "p", "a")
	if len(tr.events) != 5 { // enter a, exit a, enter b, exit b, enter a
		t.Fatalf("events = %d: %+v", len(tr.events), tr.events)
	}
	if sum := summary(tr); sum.Events != 5 || sum.Rooms["a"].Enters != 2 || sum.Rooms["a"].Exits != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestKindString(t *testing.T) {
	if Enter.String() != "enter" || Exit.String() != "exit" {
		t.Fatal("bad kind strings")
	}
	if !strings.Contains(EventKind(7).String(), "7") {
		t.Fatal("unknown kind should include value")
	}
}

func TestIndependentDevices(t *testing.T) {
	tr, _ := NewTracker(2)
	tr.Observe(sec(0), "a", "kitchen")
	tr.Observe(sec(0), "b", "living")
	tr.Observe(sec(1), "a", "kitchen")
	tr.Observe(sec(1), "b", "living")
	if tr.RoomOf("a") != "kitchen" || tr.RoomOf("b") != "living" {
		t.Fatalf("rooms: a=%q b=%q", tr.RoomOf("a"), tr.RoomOf("b"))
	}
}

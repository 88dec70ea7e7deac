package core

import (
	"testing"
	"testing/quick"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/occupancy"
	"occusim/internal/rng"
)

// observe feeds tr one classification.
func observe(tr *occupancy.Sharded, at time.Duration, device, room string) {
	tr.ObserveBatch([]occupancy.Classification{{At: at, Device: device, Room: room}})
}

// Property: demand-response energy never exceeds the schedule baseline,
// for arbitrary event streams generated by a tracker.
func TestQuickDemandNeverExceedsBaseline(t *testing.T) {
	rooms := building.PaperHouse().RoomNames()
	f := func(seed uint64, nEvents uint8) bool {
		src := rng.New(seed)
		tracker, err := occupancy.NewSharded(1)
		if err != nil {
			return false
		}
		at := time.Duration(0)
		for i := 0; i < int(nEvents); i++ {
			at += time.Duration(src.Intn(600)) * time.Second
			dev := []string{"a", "b", "c"}[src.Intn(3)]
			room := rooms[src.Intn(len(rooms))]
			if src.Bool(0.2) {
				room = building.Outside
			}
			observe(tracker, at, dev, room)
		}
		horizon := at + time.Hour
		cmp, err := bms.CompareEnergy(rooms, tracker.Events(), horizon, bms.DefaultHVAC())
		if err != nil {
			return false
		}
		return cmp.DemandKWh <= cmp.BaselineKWh+1e-9 &&
			cmp.SavingFraction >= 0 && cmp.SavingFraction <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tracker's per-room counts always sum to the number of
// known devices, whatever the observation stream.
func TestQuickTrackerCountsConsistent(t *testing.T) {
	rooms := append(building.PaperHouse().RoomNames(), building.Outside)
	f := func(seed uint64, nObs uint8) bool {
		src := rng.New(seed)
		tracker, err := occupancy.NewSharded(1 + src.Intn(3))
		if err != nil {
			return false
		}
		devices := []string{"a", "b", "c", "d"}
		at := time.Duration(0)
		for i := 0; i < int(nObs); i++ {
			at += time.Second
			observe(tracker, at, devices[src.Intn(len(devices))], rooms[src.Intn(len(rooms))])
		}
		total := 0
		sum := tracker.Summary()
		for _, r := range sum.Rooms {
			total += r.Occupants
		}
		return total == len(sum.Devices)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every committed enter is preceded by an exit from the
// previous room for the same device (event-stream well-formedness).
func TestQuickTrackerEventStreamWellFormed(t *testing.T) {
	rooms := []string{"r1", "r2", "r3", building.Outside}
	f := func(seed uint64, nObs uint8) bool {
		src := rng.New(seed)
		tracker, err := occupancy.NewSharded(1 + src.Intn(2))
		if err != nil {
			return false
		}
		at := time.Duration(0)
		for i := 0; i < int(nObs); i++ {
			at += time.Second
			observe(tracker, at, "dev", rooms[src.Intn(len(rooms))])
		}
		current := ""
		for _, e := range tracker.Events() {
			switch e.Kind {
			case occupancy.Enter:
				if current != "" {
					return false // enter without an exit first
				}
				current = e.Room
			case occupancy.Exit:
				if e.Room != current {
					return false // exit from a room we were not in
				}
				current = ""
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

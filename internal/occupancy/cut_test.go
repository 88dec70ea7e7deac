package occupancy

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestCutIsAnUnchangingView: a Cut taken while observers are held off
// reads the same — every known device's state, the merged event history
// — after observation has moved on, because the event logs it views only
// ever grow past the lengths it captured.
func TestCutIsAnUnchangingView(t *testing.T) {
	s, err := NewSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	rooms := []string{"kitchen", "hall", "study"}
	observe := func(device string, step int) {
		observeOne(s, time.Duration(step)*time.Second, device, rooms[(step+len(device))%len(rooms)])
	}
	devices := make([]string, 40)
	for i := range devices {
		devices[i] = fmt.Sprintf("dev-%02d", i)
		for step := 0; step < 5; step++ {
			observe(devices[i], step)
		}
	}
	s.Install(DeviceState{Device: "pending-only", PendingRoom: "hall", PendingCount: 1})
	s.Install(DeviceState{Device: "placed-unseen", Room: "study"})

	// Nothing is observing: this is the hold.
	cut := s.Cut()
	wantEvents := s.Events()
	var want []DeviceState
	for _, device := range s.KnownDevices() {
		st, _ := s.Export(device)
		want = append(want, st)
	}
	if len(wantEvents) == 0 || len(want) != len(devices)+2 {
		t.Fatalf("vacuous: %d events, %d devices", len(wantEvents), len(want))
	}

	// Observation resumes on every device while the cut is read.
	var wg sync.WaitGroup
	for _, device := range devices {
		wg.Add(1)
		go func(device string) {
			defer wg.Done()
			for step := 5; step < 200; step++ {
				observe(device, step)
			}
		}(device)
	}
	for i := 0; i < 20; i++ {
		if got := cut.Events(); !reflect.DeepEqual(got, wantEvents) {
			t.Fatalf("the cut's events changed under observation: %d, want %d", len(got), len(wantEvents))
		}
	}
	wg.Wait()
	got := append([]DeviceState(nil), cut.Devices...)
	sort.Slice(got, func(i, j int) bool { return got[i].Device < got[j].Device })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the cut's devices\n got: %+v\nwant: %+v", got, want)
	}
	if len(s.Events()) <= len(wantEvents) {
		t.Fatal("vacuous: no event was committed behind the cut")
	}
}

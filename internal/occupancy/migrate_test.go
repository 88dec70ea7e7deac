package occupancy

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestEvictClearsPending pins the debounce half of eviction: a device
// evicted mid-debounce must not carry its pending count to whoever
// observes it next — after re-appearing it needs the full debounce
// again before a transition commits.
func TestEvictClearsPending(t *testing.T) {
	tr, err := NewTracker(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tr.Observe(time.Duration(i)*time.Second, "p", "kitchen")
	}
	if tr.RoomOf("p") != "kitchen" {
		t.Fatal("setup: p should be committed to kitchen")
	}
	// Two of three observations toward living: pending, not committed.
	tr.Observe(3*time.Second, "p", "living")
	tr.Observe(4*time.Second, "p", "living")

	st, ok := tr.Export("p")
	if !ok {
		t.Fatal("export of a known device reported no state")
	}
	tr.Evict("p")
	if st.PendingRoom != "living" || st.PendingCount != 2 {
		t.Fatalf("exported pending = (%q, %d), want (living, 2)", st.PendingRoom, st.PendingCount)
	}
	if tr.RoomOf("p") != "" || len(summary(tr).Devices) != 0 {
		t.Fatal("evicted device still visible in tracker views")
	}

	// One more living observation must NOT commit: the pending count
	// died with the eviction.
	if evs := tr.Observe(5*time.Second, "p", "living"); len(evs) != 0 {
		t.Fatalf("observation after eviction committed %v — pending state leaked", evs)
	}
}

// TestEvictInstallContinuity is the migration invariant the fleet
// fail-over leans on: evicting a device mid-stream and installing it
// into a fresh tracker, then continuing the stream there, commits
// exactly the events (and accumulates exactly the dwell) an
// uninterrupted tracker would have.
func TestEvictInstallContinuity(t *testing.T) {
	rooms := []string{"kitchen", "kitchen", "kitchen", "living", "living", "living", "bed", "bed", "bed", "bed"}

	golden, _ := NewTracker(2)
	var goldenEvents []Event
	for i, room := range rooms {
		goldenEvents = append(goldenEvents, golden.Observe(time.Duration(i)*time.Second, "p", room)...)
	}

	a, _ := NewTracker(2)
	b, _ := NewTracker(2)
	var migratedEvents []Event
	const cut = 4 // mid-debounce of the living transition
	for i := 0; i < cut; i++ {
		migratedEvents = append(migratedEvents, a.Observe(time.Duration(i)*time.Second, "p", rooms[i])...)
	}
	st, ok := a.Export("p")
	if !ok {
		t.Fatal("nothing exported")
	}
	a.Evict("p")
	b.Install(st)
	for i := cut; i < len(rooms); i++ {
		migratedEvents = append(migratedEvents, b.Observe(time.Duration(i)*time.Second, "p", rooms[i])...)
	}

	if !reflect.DeepEqual(goldenEvents, migratedEvents) {
		t.Fatalf("migrated events differ:\n%v\nvs golden:\n%v", migratedEvents, goldenEvents)
	}
	merged := summary(a)
	merged.Merge(summary(b))
	if got, want := dwellTotals(merged), dwellTotals(summary(golden)); !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated dwell %v differs from golden %v", got, want)
	}
	if got, want := b.RoomOf("p"), golden.RoomOf("p"); got != want {
		t.Fatalf("room after migration = %q, want %q", got, want)
	}
}

// TestInstallOverwritesStaleCopy pins the fail-back rule: installing a
// migrated state replaces whatever the tracker held (a recovered shard
// may hold a pre-crash copy; the migrated one is the newer truth).
func TestInstallOverwritesStaleCopy(t *testing.T) {
	tr, _ := NewTracker(1)
	tr.Observe(time.Second, "p", "kitchen") // stale: p left long ago
	tr.Install(DeviceState{
		Device: "p", Room: "living", Seen: true, LastAt: 10 * time.Second,
		Dwell: map[string]time.Duration{"living": 9 * time.Second},
	})
	if tr.RoomOf("p") != "living" {
		t.Fatalf("room = %q after install, want living", tr.RoomOf("p"))
	}
	if st, _ := tr.Export("p"); st.Dwell["living"] != 9*time.Second {
		t.Fatalf("dwell = %v, want 9s", st.Dwell["living"])
	}
	if got := summary(tr).Rooms; got["kitchen"].Occupants != 0 || got["living"].Occupants != 1 {
		t.Fatalf("counts after overwrite = %+v", got)
	}
}

// TestExpireBefore pins the TTL sweep as a server runs it (IdleBefore
// names the devices, then each is evicted): devices idle past the
// cutoff are evicted wholesale, active ones are untouched.
func TestExpireBefore(t *testing.T) {
	s, _ := NewSharded(1)
	observeOne(s, 1*time.Second, "stale-b", "kitchen")
	observeOne(s, 2*time.Second, "stale-a", "kitchen")
	observeOne(s, 60*time.Second, "live", "living")

	expired := s.IdleBefore(30 * time.Second)
	if want := []string{"stale-a", "stale-b"}; !reflect.DeepEqual(expired, want) {
		t.Fatalf("expired = %v, want %v", expired, want)
	}
	for _, device := range expired {
		s.Evict(device)
	}
	sum := s.Summary()
	if want := map[string]string{"live": "living"}; !reflect.DeepEqual(sum.Devices, want) {
		t.Fatalf("devices after sweep = %v", sum.Devices)
	}
	for room, r := range sum.Rooms {
		// Neither stale device accrued dwell (single observation each),
		// and live has none yet.
		if r.Dwell != 0 {
			t.Fatalf("%s dwell after sweep = %v", room, r.Dwell)
		}
	}
	if more := s.IdleBefore(30 * time.Second); len(more) != 0 {
		t.Fatalf("second sweep expired %v again", more)
	}
}

// TestShardedEvictObserveRace drives concurrent Observe, Export,
// Evict, Install and sweep (IdleBefore, then Evict) traffic through one
// Sharded tracker; run under -race it pins that migration routes through
// the same stripe locks as ingest (the CI race job executes this).
func TestShardedEvictObserveRace(t *testing.T) {
	s, err := NewSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	const devices = 32
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			name := fmt.Sprintf("dev-%02d", d)
			for i := 0; i < 200; i++ {
				room := "kitchen"
				if i%3 == 0 {
					room = "living"
				}
				observeOne(s, time.Duration(i)*time.Second, name, room)
			}
		}(d)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("dev-%02d", i%devices)
			if st, ok := s.Export(name); ok {
				s.Evict(name)
				s.Install(st)
			}
			s.Export(name)
			for _, idle := range s.IdleBefore(time.Duration(i) * time.Second / 10) {
				s.Evict(idle)
			}
			s.Summary()
		}
	}()
	wg.Wait()
}

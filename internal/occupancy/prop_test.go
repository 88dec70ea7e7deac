package occupancy

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"occusim/internal/rng"
)

// canonEvents is the time-canonical order every federated merge in the
// repo uses: nondecreasing time, ties by device, stable within a device.
func canonEvents(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// genInterleaving synthesises a randomized classification stream:
// devices report at nondecreasing per-device times (each device owns
// its own timeline), rooms flip randomly with occasional repeats so
// debounce both commits and rejects transitions, and the global
// interleaving is a random shuffle of the per-device streams.
func genInterleaving(src *rng.Source, devices, steps int, rooms []string) []Classification {
	type cursor struct {
		name string
		at   time.Duration
		src  *rng.Source
	}
	cur := make([]cursor, devices)
	for d := range cur {
		cur[d] = cursor{name: fmt.Sprintf("dev-%02d", d), src: src.Split(uint64(7 + d))}
	}
	var out []Classification
	remaining := devices * steps
	emitted := make([]int, devices)
	for remaining > 0 {
		d := src.Intn(devices)
		if emitted[d] >= steps {
			continue
		}
		c := &cur[d]
		// Advance this device's clock by a random, sometimes-zero step
		// (equal timestamps across devices are common in batch ingest).
		c.at += time.Duration(c.src.Intn(4)) * time.Second
		room := rooms[c.src.Intn(len(rooms))]
		if c.src.Bool(0.4) {
			// Bias toward one common room so consecutive classifications
			// repeat often enough for debounce to commit transitions,
			// not just churn pendings.
			room = rooms[0]
		}
		out = append(out, Classification{At: c.at, Device: c.name, Room: room})
		emitted[d]++
		remaining--
	}
	return out
}

// TestShardedMergeMatchesSingleTracker is the satellite property test:
// for randomized event interleavings, the federated merge of disjoint
// device partitions (Sharded stripes devices across 16 trackers) must
// equal the single-tracker ground truth in committed events, the
// summary (head counts, rooms, dwell) and every device's exported state.
func TestShardedMergeMatchesSingleTracker(t *testing.T) {
	rooms := []string{"kitchen", "living", "study", "bedroom"}
	for trial := 0; trial < 25; trial++ {
		seed := uint64(1000 + trial*13)
		src := rng.New(seed)
		devices := 3 + src.Intn(14)
		steps := 10 + src.Intn(60)
		debounce := 1 + src.Intn(3)
		stream := genInterleaving(src, devices, steps, rooms)

		single, err := NewTracker(debounce)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewSharded(debounce)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range stream {
			single.Observe(c.At, c.Device, c.Room)
		}
		sharded.ObserveBatch(stream)

		label := fmt.Sprintf("trial %d (seed %d, %d devices, %d steps, debounce %d)",
			trial, seed, devices, steps, debounce)

		want := canonEvents(single.events)
		got := canonEvents(sharded.Events())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged events diverge from ground truth:\n got %+v\nwant %+v", label, got, want)
		}
		// Sharded.Events is already canonical; the sort above must be a
		// no-op on it.
		if raw := sharded.Events(); !reflect.DeepEqual(raw, got) {
			t.Fatalf("%s: Sharded.Events not in canonical order", label)
		}
		if got, want := sharded.Summary(), summary(single); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: summaries diverge: got %+v want %+v", label, got, want)
		}
		for d := 0; d < devices; d++ {
			name := fmt.Sprintf("dev-%02d", d)
			if got, want := sharded.RoomOf(name), single.RoomOf(name); got != want {
				t.Fatalf("%s: RoomOf(%s) = %q, want %q", label, name, got, want)
			}
			got, _ := sharded.Export(name)
			want, _ := single.Export(name)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Export(%s) diverges: got %+v want %+v", label, name, got, want)
			}
		}
	}
}

// TestExplicitPartitionMergeMatchesSingleTracker goes one federation
// level up, mirroring the fleet gateway: devices are partitioned across
// 4 independent Sharded trackers (as 4 BMS shards), each shard sees
// only its own devices' subsequence, and the shard event streams are
// merged with the canonical sort. The result must still equal the
// single-tracker ground truth byte for byte.
func TestExplicitPartitionMergeMatchesSingleTracker(t *testing.T) {
	rooms := []string{"kitchen", "living", "study", "bedroom", "hallway"}
	for trial := 0; trial < 15; trial++ {
		seed := uint64(5000 + trial*29)
		src := rng.New(seed)
		devices := 4 + src.Intn(12)
		steps := 10 + src.Intn(50)
		stream := genInterleaving(src, devices, steps, rooms)

		single, err := NewTracker(2)
		if err != nil {
			t.Fatal(err)
		}
		const parts = 4
		shards := make([]*Sharded, parts)
		for i := range shards {
			shards[i], err = NewSharded(2)
			if err != nil {
				t.Fatal(err)
			}
		}
		partOf := func(device string) int {
			h := uint32(2166136261)
			for i := 0; i < len(device); i++ {
				h ^= uint32(device[i])
				h *= 16777619
			}
			return int(h % parts)
		}
		for _, c := range stream {
			single.Observe(c.At, c.Device, c.Room)
			observeOne(shards[partOf(c.Device)], c.At, c.Device, c.Room)
		}

		var merged []Event
		for _, sh := range shards {
			merged = append(merged, sh.Events()...)
		}
		merged = canonEvents(merged)
		want := canonEvents(single.events)
		gotJSON, _ := json.Marshal(merged)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("trial %d (seed %d): partitioned merge diverges:\n got %s\nwant %s",
				trial, seed, gotJSON, wantJSON)
		}

		sum := NewSummary(0, 0)
		for _, sh := range shards {
			sum.Merge(sh.Summary())
		}
		if want := summary(single); !reflect.DeepEqual(sum, want) {
			t.Fatalf("trial %d: merged summary %+v, want %+v", trial, sum, want)
		}
	}
}

// summaryFromExports is the reference a Summary is checked against: the
// same state rebuilt the slow way, by walking the event log and every
// known device's exported state.
func summaryFromExports(events []Event, devices []string, export func(device string) (DeviceState, bool)) Summary {
	want := NewSummary(0, 0)
	want.Events = len(events)
	for _, d := range devices {
		st, _ := export(d)
		if st.Room != "" {
			want.Devices[d] = st.Room
			r := want.Rooms[st.Room]
			r.Occupants++
			want.Rooms[st.Room] = r
		}
		for room, dwell := range st.Dwell {
			r := want.Rooms[room]
			r.Dwell += dwell
			want.Rooms[room] = r
		}
	}
	for _, e := range events {
		r := want.Rooms[e.Room]
		if e.Kind == Enter {
			r.Enters++
		} else {
			r.Exits++
		}
		want.Rooms[e.Room] = r
	}
	return want
}

// TestSummaryMatchesEventLog: tallies are history, kept in step with the
// event log and left alone by everything that moves per-device state.
// Random Observe / Evict / Install / expiry sweep / InstallEvents
// sequences, on a single Tracker and on a Sharded one, must leave the
// one-pass Summary equal to the state rebuilt from the event log and
// each known device's Export after every step.
func TestSummaryMatchesEventLog(t *testing.T) {
	rooms := []string{"kitchen", "living", "study", "bedroom"}
	for trial := 0; trial < 20; trial++ {
		seed := uint64(9000 + trial*17)
		src := rng.New(seed)
		devices := 3 + src.Intn(10)
		debounce := 1 + src.Intn(2)
		stream := genInterleaving(src, devices, 20+src.Intn(40), rooms)

		single, err := NewTracker(debounce)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewSharded(debounce)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step int, op string) {
			t.Helper()
			want := summaryFromExports(single.events, single.KnownDevices(), single.Export)
			if got := summary(single); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (seed %d) step %d after %s: the tracker's summary\n got %+v\nwant %+v", trial, seed, step, op, got, want)
			}
			want = summaryFromExports(sharded.Events(), sharded.KnownDevices(), sharded.Export)
			if got := sharded.Summary(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (seed %d) step %d after %s: Sharded.Summary\n got %+v\nwant %+v", trial, seed, step, op, got, want)
			}
		}
		var parked []DeviceState // evicted states waiting to be installed back
		for step, c := range stream {
			single.Observe(c.At, c.Device, c.Room)
			observeOne(sharded, c.At, c.Device, c.Room)
			op := "Observe"
			switch src.Intn(12) {
			case 0:
				op = "Evict"
				st, ok := single.Export(c.Device)
				if _, ok2 := sharded.Export(c.Device); ok != ok2 {
					t.Fatalf("trial %d step %d: Export(%s) ok=%v on the tracker, %v sharded", trial, step, c.Device, ok, ok2)
				}
				single.Evict(c.Device)
				sharded.Evict(c.Device)
				if ok {
					parked = append(parked, st)
				}
			case 1:
				if len(parked) > 0 {
					op = "Install"
					st := parked[len(parked)-1]
					parked = parked[:len(parked)-1]
					single.Install(st)
					sharded.Install(st)
				}
			case 2:
				op = "expiry sweep"
				cutoff := c.At - time.Duration(src.Intn(20))*time.Second
				want := single.IdleBefore(cutoff)
				for _, device := range want {
					single.Evict(device)
				}
				got := sharded.IdleBefore(cutoff)
				for _, device := range got {
					sharded.Evict(device)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: the sharded sweep names %v, the single tracker expired %v", step, got, want)
				}
			case 3:
				// A recovered snapshot's events: another device's history,
				// canonical order, arriving in one call.
				op = "InstallEvents"
				ghost := fmt.Sprintf("ghost-%d", step)
				recovered := []Event{
					{At: c.At, Device: ghost, Kind: Enter, Room: rooms[src.Intn(len(rooms))]},
					{At: c.At + time.Second, Device: ghost, Kind: Exit, Room: rooms[src.Intn(len(rooms))]},
				}
				single.InstallEvents(recovered)
				sharded.InstallEvents(recovered)
			}
			check(step, op)
		}
	}
}

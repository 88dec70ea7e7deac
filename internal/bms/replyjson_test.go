package bms

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"occusim/internal/occupancy"
	"occusim/internal/raceflag"
)

// The method-less mirrors of the read replies: what encoding/json wrote
// for them before they wrote themselves, and so the oracle both
// directions are held to. TestReplyMirrorsMatch keeps each mirror's
// fields, types and tags equal to its reply's.
type (
	occupancyMirror struct {
		Rooms   map[string]int    `json:"rooms"`
		Devices map[string]string `json:"devices"`
	}
	rollupMirror struct {
		Devices int                   `json:"devices"`
		Events  int                   `json:"events"`
		Rooms   map[string]RoomRollup `json:"rooms"`
	}
	dwellMirror struct {
		Rooms map[string]float64 `json:"rooms"`
	}
)

func TestReplyMirrorsMatch(t *testing.T) {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeFor[OccupancySnapshot](), reflect.TypeFor[occupancyMirror]()},
		{reflect.TypeFor[Rollup](), reflect.TypeFor[rollupMirror]()},
		{reflect.TypeFor[DwellReply](), reflect.TypeFor[dwellMirror]()},
	} {
		reply, mirror := pair[0], pair[1]
		if reply.NumField() != mirror.NumField() {
			t.Fatalf("%v has %d fields, its mirror %d", reply, reply.NumField(), mirror.NumField())
		}
		for i := range reply.NumField() {
			rf, mf := reply.Field(i), mirror.Field(i)
			if rf.Name != mf.Name || rf.Type != mf.Type || rf.Tag != mf.Tag {
				t.Errorf("%v field %d is %s %v %q, its mirror's %s %v %q", reply, i, rf.Name, rf.Type, rf.Tag, mf.Name, mf.Type, mf.Tag)
			}
		}
	}
}

// sameBytes requires a reply's own MarshalJSON, json.Marshal of it and
// the encoder WriteJSON uses all to write what encoding/json writes for
// its mirror — or, for a value encoding/json refuses, all to fail.
func sameBytes(t *testing.T, reply json.Marshaler, mirror any) []byte {
	t.Helper()
	want, wantErr := json.Marshal(mirror)
	own, ownErr := reply.MarshalJSON()
	got, gotErr := json.Marshal(reply)
	var enc, encWant bytes.Buffer
	encErr := json.NewEncoder(&enc).Encode(reply)
	_ = json.NewEncoder(&encWant).Encode(mirror)
	if wantErr != nil {
		if gotErr == nil || encErr == nil {
			t.Fatalf("encoding/json refuses %#v (%v), the reply writes %s", mirror, wantErr, got)
		}
		return nil
	}
	if ownErr != nil || gotErr != nil || encErr != nil {
		t.Fatalf("%T: %v / %v / %v", reply, ownErr, gotErr, encErr)
	}
	if !bytes.Equal(own, want) || !bytes.Equal(got, want) || !bytes.Equal(enc.Bytes(), encWant.Bytes()) {
		t.Fatalf("%T writes\n%s\nencoding/json\n%s", reply, own, want)
	}
	return got
}

// FuzzReadRepliesAreEncodingJSON: each read reply writes exactly the
// bytes encoding/json writes for its method-less mirror — for any names
// (invalid UTF-8, <>&, U+2028, control bytes, quotes, backslashes), any
// counts, any dwell, and nil or empty maps.
func FuzzReadRepliesAreEncodingJSON(f *testing.F) {
	f.Add("dev-001", "dev-002", "kitchen", "living room", 3, 7, 12.5, uint8(0))
	f.Add("a<b>&c", "  ", "\"quoted\\\"", "\x00\x1f\x7f", -1, 0, 0.0, uint8(0))
	f.Add("\xff\xfe", "ok", "caf\xc3\xa9", "\xe2\x80", 1, 1, 1e-7, uint8(1))
	f.Add("x", "x", "same", "same", 0, 0, 1e21, uint8(2))
	f.Add("", "y", "", "z", math.MaxInt, math.MinInt, 123456789e300, uint8(4))
	f.Add("d", "e", "r", "s", 2, 2, -5e-324, uint8(7))
	f.Add("d", "e", "r", "s", 2, 2, 1e20, uint8(3))
	f.Add("d", "e", "r", "s", 2, 2, math.Inf(1), uint8(0))
	f.Fuzz(func(t *testing.T, dev1, dev2, room1, room2 string, n1, n2 int, dwell float64, shape uint8) {
		// shape: bit 0 empties the room maps, bit 1 the device maps, and
		// bit 2 makes the emptied ones nil.
		rooms := func() bool { return shape&1 == 0 }
		devices := func() bool { return shape&2 == 0 }
		occ := OccupancySnapshot{Rooms: map[string]int{}, Devices: map[string]string{}}
		rollup := Rollup{Devices: n1, Events: n2, Rooms: map[string]RoomRollup{}}
		dwellReply := DwellReply{Rooms: map[string]float64{}}
		if rooms() {
			occ.Rooms[room1], occ.Rooms[room2] = n1, n2
			rollup.Rooms[room1] = RoomRollup{Occupants: n1, Enters: n2, Exits: n1 - n2, DwellSeconds: dwell}
			rollup.Rooms[room2] = RoomRollup{Occupants: n2, DwellSeconds: -dwell / 3}
			dwellReply.Rooms[room1], dwellReply.Rooms[room2] = dwell, dwell*1e-9
		} else if shape&4 != 0 {
			occ.Rooms, rollup.Rooms, dwellReply.Rooms = nil, nil, nil
		}
		if devices() {
			occ.Devices[dev1], occ.Devices[dev2] = room1, room2
		} else if shape&4 != 0 {
			occ.Devices = nil
		}

		sameBytes(t, occ, occupancyMirror(occ))
		sameBytes(t, rollup, rollupMirror(rollup))
		sameBytes(t, dwellReply, dwellMirror(dwellReply))
	})
}

// realSummary is what a shard holds after a short history: three devices
// moving over the paper house, one of them evicted.
func realSummary(tb testing.TB) occupancy.Summary {
	s, b := newTestServer(tb)
	for i := 0; i < 9; i++ {
		for d, dev := range []string{"dev-a", "dev-b", "dev-c"} {
			if _, err := s.Ingest(reportNear(b, dev, (d+i/3)%len(b.Beacons), float64(i)+0.1*float64(d))); err != nil {
				tb.Fatal(err)
			}
		}
	}
	evict(tb, s, "dev-c")
	sum := s.Summary()
	if len(sum.Devices) != 2 || len(sum.Rooms) < 2 || sum.Events <= len(sum.Devices) {
		tb.Fatalf("vacuous: %d devices in %d rooms over %d events", len(sum.Devices), len(sum.Rooms), sum.Events)
	}
	return sum
}

// summaryBytes writes a summary the way AppendSummary lays one out, from
// its parts, so a test can claim counts the entries do not match.
func summaryBytes(events, rooms uint64, roomEntries []byte, devices uint64, deviceEntries []byte) []byte {
	out := binary.AppendUvarint(nil, events)
	out = append(binary.AppendUvarint(out, rooms), roomEntries...)
	return append(binary.AppendUvarint(out, devices), deviceEntries...)
}

// FuzzSummaryDecode: for any input, ParseSummary never panics, and
// either refuses it or reads a summary that AppendSummary writes back to
// bytes ParseSummary reads as the same summary.
func FuzzSummaryDecode(f *testing.F) {
	real := AppendSummary(nil, realSummary(f))
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(real[:len(real)-1])
	f.Add(append(bytes.Clone(real), 0))
	f.Add(AppendSummary(nil, occupancy.Summary{}))
	kitchen := []byte("\x07kitchen\x01\x02\x01\x80\xde\x8a\xcb\x05")
	f.Add(summaryBytes(5, 1, kitchen, 2, []byte("\x01a\x07kitchen\x01b\x00")))
	f.Add(summaryBytes(0, 2, append(bytes.Clone(kitchen), kitchen...), 0, nil))           // one room twice
	f.Add(summaryBytes(0, 0, nil, 1<<40, nil))                                            // a count no bytes back
	f.Add(summaryBytes(0, 1<<40, nil, 0, nil))                                            // the same for rooms
	f.Add(summaryBytes(0, 0, nil, 1, []byte("\x05a")))                                    // a name past the end
	f.Add(summaryBytes(0, 0, nil, 1, []byte("\x80\x00\x00")))                             // a padded uvarint
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00"))                 // an overlong uvarint
	f.Add([]byte(`{"devices":0,"events":0,"rooms":{},"deviceRooms":{},"dwellNanos":{}}`)) // the JSON form it replaced
	f.Add([]byte{})
	f.Add([]byte{5})          // the event count alone
	f.Add([]byte{0, 0, 0, 0}) // an empty summary and a trailing byte
	f.Add(AppendSummary(nil, occupancy.Summary{Events: -1}))
	f.Add(AppendSummary(nil, occupancy.Summary{Rooms: map[string]occupancy.RoomSummary{
		"": {Occupants: math.MinInt64, Tally: occupancy.Tally{Enters: math.MaxInt64, Exits: -1}, Dwell: math.MaxInt64},
	}}))
	f.Add(AppendSummary(nil, occupancy.Summary{Devices: map[string]string{"": "", "\xff\xfe": "caf\xc3\xa9"}}))
	f.Add(AppendSummary(nil, occupancy.Summary{Devices: map[string]string{strings.Repeat("d", 300): "kitchen"}}))
	f.Add(summaryBytes(0, 1, nil, 0, nil))                              // a room count with no room
	f.Add(summaryBytes(0, 1, []byte("\x01k\x01\x02"), 0, []byte{0, 0})) // a room entry two ints short
	f.Add(summaryBytes(0, 0, nil, 2, []byte{0, 0, 0}))                  // one device short of its count
	f.Add(summaryBytes(0, 0, nil, 2, []byte("\x01a\x00\x01a\x01k")))    // one device twice
	f.Add(summaryBytes(1<<63, 0, nil, 0, nil))                          // an event count past MaxInt64
	f.Add(summaryBytes(0, 0, nil, 1, []byte("\x00\x05kit")))            // a room name past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := ParseSummary(data)
		if err != nil {
			return
		}
		again, err := ParseSummary(AppendSummary(nil, sum))
		if err != nil || !reflect.DeepEqual(again, sum) {
			t.Fatalf("%q reads as %+v, which writes back as %+v (%v)", data, sum, again, err)
		}
	})
}

// TestSummaryRoundTrips: any summary — empty names and maps, negative
// counts, math.MaxInt64 and math.MinInt64 — reads back as written.
func TestSummaryRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 1))
	ints := []int{0, 1, -1, 127, 128, math.MaxInt64, math.MinInt64, -300}
	anyInt := func() int {
		if rng.IntN(2) == 0 {
			return ints[rng.IntN(len(ints))]
		}
		return int(rng.Uint64())
	}
	names := []string{"", "kitchen", "dev-001", "caf\xc3\xa9", "\xff\x00", strings.Repeat("r", 200)}
	anyName := func() string {
		if rng.IntN(2) == 0 {
			return names[rng.IntN(len(names))]
		}
		return fmt.Sprintf("n%d", rng.IntN(1000))
	}
	for trial := range 500 {
		sum := occupancy.NewSummary(0, 0)
		sum.Events = anyInt()
		for range rng.IntN(6) {
			sum.Rooms[anyName()] = occupancy.RoomSummary{
				Occupants: anyInt(),
				Tally:     occupancy.Tally{Enters: anyInt(), Exits: anyInt()},
				Dwell:     time.Duration(anyInt()),
			}
		}
		for range rng.IntN(6) {
			sum.Devices[anyName()] = anyName()
		}
		got, err := ParseSummary(AppendSummary(nil, sum))
		if err != nil || !reflect.DeepEqual(got, sum) {
			t.Fatalf("trial %d: %+v reads back as %+v (%v)", trial, sum, got, err)
		}
	}
	if got, err := ParseSummary(AppendSummary(nil, occupancy.Summary{})); err != nil || got.Rooms == nil || got.Devices == nil {
		t.Fatalf("a summary of nil maps reads back as %#v (%v), want empty maps", got, err)
	}
}

// TestSummaryDecodeBoundsItsHint: a reply claiming 2^40 devices, or 2^40
// rooms, and carrying none is refused without presizing a map for the
// claim; a count the bytes can hold is taken.
func TestSummaryDecodeBoundsItsHint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are measured without the race detector")
	}
	for _, data := range [][]byte{
		summaryBytes(0, 0, nil, 1<<40, nil),
		summaryBytes(0, 1<<40, nil, 0, nil),
		summaryBytes(0, 0, nil, 1<<40, bytes.Repeat([]byte{0}, 1<<10)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sum, err := ParseSummary(data)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; err == nil || grown > 1<<16 {
			t.Fatalf("% x reads as %d devices in %d rooms (%v), allocating %d bytes", data, len(sum.Devices), len(sum.Rooms), err, grown)
		}
	}
	if sum, err := ParseSummary(summaryBytes(0, 0, nil, 2, []byte{0, 0, 1, 'a', 0})); err != nil || len(sum.Devices) != 2 {
		t.Fatalf("two devices in their five bytes read as %+v (%v)", sum, err)
	}
}

// TestReplyJSONConcurrent: concurrent reads share the pooled interners
// and key slices, never one at a time: every goroutine's summary parse
// reads what was written, and its public writes stay encoding/json's.
// Run it under -race.
func TestReplyJSONConcurrent(t *testing.T) {
	want := realSummary(t)
	reply := AppendSummary(nil, want)
	wantRollup, err := json.Marshal(rollupMirror(RenderRollup(want)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				sum, err := ParseSummary(reply)
				if err != nil || !reflect.DeepEqual(sum, want) {
					t.Errorf("a concurrent parse reads %+v (%v)", sum, err)
					return
				}
				if out, err := json.Marshal(RenderRollup(sum)); err != nil || !bytes.Equal(out, wantRollup) {
					t.Errorf("a concurrent write answers %s (%v), want %s", out, err, wantRollup)
					return
				}
			}
		}()
	}
	wg.Wait()
}

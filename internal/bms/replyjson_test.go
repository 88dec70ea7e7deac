package bms

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"occusim/internal/raceflag"
	"occusim/internal/wire"
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
	shardRollupMirror struct {
		rollupMirror
		DeviceRooms map[string]string        `json:"deviceRooms"`
		DwellNanos  map[string]time.Duration `json:"dwellNanos"`
	}
	dwellMirror struct {
		Rooms map[string]float64 `json:"rooms"`
	}
)

func mirrorOf(sr ShardRollup) shardRollupMirror {
	return shardRollupMirror{rollupMirror(sr.Rollup), sr.DeviceRooms, sr.DwellNanos}
}

func TestReplyMirrorsMatch(t *testing.T) {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeFor[OccupancySnapshot](), reflect.TypeFor[occupancyMirror]()},
		{reflect.TypeFor[Rollup](), reflect.TypeFor[rollupMirror]()},
		{reflect.TypeFor[ShardRollup](), reflect.TypeFor[shardRollupMirror]()},
		{reflect.TypeFor[DwellReply](), reflect.TypeFor[dwellMirror]()},
	} {
		reply, mirror := pair[0], pair[1]
		if reply.NumField() != mirror.NumField() {
			t.Fatalf("%v has %d fields, its mirror %d", reply, reply.NumField(), mirror.NumField())
		}
		for i := range reply.NumField() {
			rf, mf := reply.Field(i), mirror.Field(i)
			if rf.Anonymous && mf.Anonymous {
				continue // the embedded Rollup, checked as its own pair
			}
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
// counts, any dwell, and nil or empty maps — and a ShardRollup's bytes
// carry the two maps Rollup's promoted method would drop.
func FuzzReadRepliesAreEncodingJSON(f *testing.F) {
	f.Add("dev-001", "dev-002", "kitchen", "living room", 3, 7, 12.5, int64(12_500_000_000), uint8(0))
	f.Add("a<b>&c", "  ", "\"quoted\\\"", "\x00\x1f\x7f", -1, 0, 0.0, int64(0), uint8(0))
	f.Add("\xff\xfe", "ok", "caf\xc3\xa9", "\xe2\x80", 1, 1, 1e-7, int64(-1), uint8(1))
	f.Add("x", "x", "same", "same", 0, 0, 1e21, int64(math.MaxInt64), uint8(2))
	f.Add("", "y", "", "z", math.MaxInt, math.MinInt, 123456789e300, int64(math.MinInt64), uint8(4))
	f.Add("d", "e", "r", "s", 2, 2, -5e-324, int64(1), uint8(7))
	f.Add("d", "e", "r", "s", 2, 2, 1e20, int64(1), uint8(3))
	f.Add("d", "e", "r", "s", 2, 2, math.Inf(1), int64(1), uint8(0))
	f.Fuzz(func(t *testing.T, dev1, dev2, room1, room2 string, n1, n2 int, dwell float64, nanos int64, shape uint8) {
		// shape: bit 0 empties the room maps, bit 1 the device maps, and
		// bit 2 makes the emptied ones nil.
		rooms := func() bool { return shape&1 == 0 }
		devices := func() bool { return shape&2 == 0 }
		occ := OccupancySnapshot{Rooms: map[string]int{}, Devices: map[string]string{}}
		rollup := Rollup{Devices: n1, Events: n2, Rooms: map[string]RoomRollup{}}
		dwellReply := DwellReply{Rooms: map[string]float64{}}
		sr := ShardRollup{DeviceRooms: map[string]string{}, DwellNanos: map[string]time.Duration{}}
		if rooms() {
			occ.Rooms[room1], occ.Rooms[room2] = n1, n2
			rollup.Rooms[room1] = RoomRollup{Occupants: n1, Enters: n2, Exits: n1 - n2, DwellSeconds: dwell}
			rollup.Rooms[room2] = RoomRollup{Occupants: n2, DwellSeconds: -dwell / 3}
			dwellReply.Rooms[room1], dwellReply.Rooms[room2] = dwell, dwell*1e-9
			sr.DwellNanos[room1], sr.DwellNanos[room2] = time.Duration(nanos), -time.Duration(nanos)
		} else if shape&4 != 0 {
			occ.Rooms, rollup.Rooms, dwellReply.Rooms, sr.DwellNanos = nil, nil, nil, nil
		}
		if devices() {
			occ.Devices[dev1], occ.Devices[dev2] = room1, room2
			sr.DeviceRooms[dev1], sr.DeviceRooms[dev2] = room2, room1
		} else if shape&4 != 0 {
			occ.Devices, sr.DeviceRooms = nil, nil
		}
		sr.Rollup = rollup

		sameBytes(t, occ, occupancyMirror(occ))
		sameBytes(t, rollup, rollupMirror(rollup))
		sameBytes(t, dwellReply, dwellMirror(dwellReply))
		if got := sameBytes(t, sr, mirrorOf(sr)); got != nil {
			if !bytes.Contains(got, []byte(`,"deviceRooms":`)) || !bytes.Contains(got, []byte(`,"dwellNanos":`)) {
				t.Fatalf("a ShardRollup writes %s: the gateway's merge maps are missing", got)
			}
		}
	})
}

// realShardReply is what a shard answers a rollup read with after a
// short history: three devices moving over the paper house.
func realShardReply(tb testing.TB) []byte {
	s, b := newTestServer(tb)
	for i := 0; i < 9; i++ {
		for d, dev := range []string{"dev-a", "dev-b", "dev-c"} {
			if _, err := s.Ingest(reportNear(b, dev, (d+i/3)%len(b.Beacons), float64(i)+0.1*float64(d))); err != nil {
				tb.Fatal(err)
			}
		}
	}
	data, err := json.Marshal(NewShardRollup(s.Summary()))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzShardRollupDecode: for any input, json.Unmarshal into a zero
// ShardRollup — which runs its own parse — and into its method-less
// mirror agree: the same value, or both an error. So does calling the
// method directly, without the validation json.Unmarshal runs first.
func FuzzShardRollupDecode(f *testing.F) {
	real := realShardReply(f)
	if _, ok := (&rollupParser{LayoutReader: wire.LayoutReader{Buf: real}, names: wire.Interner{}}).shardRollup(); !ok {
		f.Fatalf("the parse declines a real shard's reply, %s", real)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, real, "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(indented.Bytes())
	for _, seed := range []string{
		`{"devices":2,"events":5,"rooms":{"k":{"occupants":1,"enters":2,"exits":1,"dwellSeconds":1.5}},"deviceRooms":{"a":"k","b":"l"},"dwellNanos":{"k":1500000000}}`,
		`{"events":5,"devices":2,"rooms":{},"deviceRooms":{},"dwellNanos":{}}`,
		`{"Devices":2,"EVENTS":5,"rooms":null,"DeviceRooms":{"a":"k"},"dwellnanos":null}`,
		`{"devices":2,"events":5,"rooms":{},"deviceRooms":{"a":"k","a":"l"},"dwellNanos":{"k":1,"k":2}}`,
		`{"devices":2,"devices":3,"events":5,"rooms":{},"deviceRooms":{},"dwellNanos":{}}`,
		`{"devices":2,"events":5,"rooms":{},"deviceRooms":{},"dwellNanos":{},"extra":[1,{"x":null}]}`,
		`{"devices":1,"events":0,"rooms":{},"deviceRooms":{"devA":"<r>","\ud800":"�\n"},"dwellNanos":{}}`,
		`{"devices":1,"events":0,"rooms":{},"deviceRooms":{"caf` + "\xc3\xa9" + `":"` + "\xff" + `"},"dwellNanos":{}}`,
		`{"devices":1099511627776,"events":0,"rooms":{},"deviceRooms":{},"dwellNanos":{}}`,
		`{"devices":"3","events":5,"rooms":{},"deviceRooms":{},"dwellNanos":{}}`,
		`{"devices":1.5,"events":5,"rooms":[],"deviceRooms":{"a":1},"dwellNanos":{"k":"x"}}`,
		`{"devices":9223372036854775808,"events":-9223372036854775808,"rooms":{},"deviceRooms":{},"dwellNanos":{}}`,
		`{"devices":0,"events":-0,"rooms":{"k":{"occupants":0,"enters":0,"exits":0,"dwellSeconds":-0.0e+00}},"deviceRooms":null,"dwellNanos":null}`,
		`{"devices":0,"events":0,"rooms":{"k":{"occupants":0,"enters":0,"exits":0,"dwellSeconds":1e400}},"deviceRooms":{},"dwellNanos":{}}`,
		`{"devices":0,"events":0,"rooms":{"k":null,"l":{"exits":3}},"deviceRooms":{},"dwellNanos":{}}`,
		`{"devices":01,"events":0,"rooms":{},"deviceRooms":{},"dwellNanos":{}}`,
		`{"devices":0,"events":0,"rooms":{},"deviceRooms":{},"dwellNanos":{}} `,
		`{"devices":0,"events":0,"rooms":{},"deviceRooms":{},"dwellNanos":{}`,
		`null`, `{}`, `[]`, `"rollup"`, `7`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got ShardRollup
		gotErr := json.Unmarshal(data, &got)
		var want shardRollupMirror
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: the reply's parse answers %v, encoding/json %v", data, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(mirrorOf(got), want) {
			t.Fatalf("%q decodes to\n%#v\nencoding/json to\n%#v", data, mirrorOf(got), want)
		}
		var direct ShardRollup
		directErr := direct.UnmarshalJSON(data)
		if (directErr == nil) != (gotErr == nil) || gotErr == nil && !reflect.DeepEqual(direct, got) {
			t.Fatalf("%q: UnmarshalJSON decodes %#v (%v), json.Unmarshal %#v (%v)", data, direct, directErr, got, gotErr)
		}
	})
}

// TestShardRollupDecodeBoundsItsHint: a reply claiming 2^40 devices and
// naming none decodes without presizing a map for the claim.
func TestShardRollupDecodeBoundsItsHint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are measured without the race detector")
	}
	data := []byte(`{"devices":1099511627776,"events":0,"rooms":{},"deviceRooms":{},"dwellNanos":{}}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sr ShardRollup
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<16 || sr.Devices != 1<<40 || len(sr.DeviceRooms) != 0 {
		t.Fatalf("%d devices, %d named: the decode allocated %d bytes", sr.Devices, len(sr.DeviceRooms), grown)
	}
}

// TestReplyJSONConcurrent: concurrent reads share the pooled interners
// and key slices, never one at a time: every goroutine's parse and write
// stays encoding/json's. Run it under -race.
func TestReplyJSONConcurrent(t *testing.T) {
	real := realShardReply(t)
	var want shardRollupMirror
	if err := json.Unmarshal(real, &want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				var sr ShardRollup
				if err := json.Unmarshal(real, &sr); err != nil || !reflect.DeepEqual(mirrorOf(sr), want) {
					t.Errorf("a concurrent parse decodes %#v (%v)", sr, err)
					return
				}
				if out, err := json.Marshal(sr); err != nil || !bytes.Equal(out, real) {
					t.Errorf("a concurrent write answers %s (%v), want %s", out, err, real)
					return
				}
			}
		}()
	}
	wg.Wait()
}

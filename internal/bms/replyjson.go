// The summary's read replies without reflection: OccupancySnapshot,
// Rollup, ShardRollup and DwellReply write themselves (MarshalJSON), and a
// ShardRollup parses itself (UnmarshalJSON). The bytes are encoding/json's
// own — its field order, its map keys in sorted byte order, its HTML-safe
// strings (appendJSONString), its float format, null for a nil map — so
// every writer, WriteJSON included, sends what it always sent, and
// encoding/json is the oracle the fuzz targets in replyjson_test.go hold
// both directions to. A read then costs allocations per room, not per
// device: the keys are sorted in a pooled slice, and the gateway's parse
// fills maps sized from the reply's counts with the names interned.
package bms

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"occusim/internal/wire"
)

// MarshalJSON writes {"rooms":…,"devices":…}.
func (o OccupancySnapshot) MarshalJSON() ([]byte, error) {
	return marshalReply(func(dst []byte) []byte {
		dst = appendObject(append(dst, `{"rooms":`...), o.Rooms, appendInt)
		dst = appendObject(append(dst, `,"devices":`...), o.Devices, appendJSONString)
		return append(dst, '}')
	})
}

// MarshalJSON writes {"devices":…,"events":…,"rooms":…}.
func (r Rollup) MarshalJSON() ([]byte, error) {
	return marshalReply(func(dst []byte) []byte {
		return append(r.appendFields(append(dst, '{')), '}')
	})
}

// MarshalJSON writes the embedded Rollup's fields, then deviceRooms and
// dwellNanos. It must exist: without it Rollup's method is promoted and
// the two maps a gateway merges by are silently dropped.
func (sr ShardRollup) MarshalJSON() ([]byte, error) {
	return marshalReply(sr.appendJSON)
}

// appendJSON appends the bytes MarshalJSON returns: what a shard's
// stream answers a rollup read with, written straight into the reply.
func (sr ShardRollup) appendJSON(dst []byte) []byte {
	dst = sr.appendFields(append(dst, '{'))
	dst = appendObject(append(dst, `,"deviceRooms":`...), sr.DeviceRooms, appendJSONString)
	dst = appendObject(append(dst, `,"dwellNanos":`...), sr.DwellNanos, appendDuration)
	return append(dst, '}')
}

// DwellReply is the GET /api/v1/dwell payload: each room's dwell in
// seconds.
type DwellReply struct {
	Rooms map[string]float64 `json:"rooms"`
}

// MarshalJSON writes {"rooms":…}.
func (d DwellReply) MarshalJSON() ([]byte, error) {
	return marshalReply(func(dst []byte) []byte {
		return append(appendObject(append(dst, `{"rooms":`...), d.Rooms, appendFloat), '}')
	})
}

// marshalReply appends a reply into a pooled buffer and returns a copy of
// exactly its length: one allocation a reply, whatever its size.
func marshalReply(appendTo func([]byte) []byte) ([]byte, error) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = appendTo(*buf)
	return slices.Clone(*buf), nil
}

// appendFields appends the rollup's fields without their braces, for its
// own object and for the ShardRollup that embeds it.
func (r Rollup) appendFields(dst []byte) []byte {
	dst = appendInt(append(dst, `"devices":`...), r.Devices)
	dst = appendInt(append(dst, `,"events":`...), r.Events)
	return appendObject(append(dst, `,"rooms":`...), r.Rooms, appendRoomRollup)
}

func appendRoomRollup(dst []byte, r RoomRollup) []byte {
	dst = appendInt(append(dst, `{"occupants":`...), r.Occupants)
	dst = appendInt(append(dst, `,"enters":`...), r.Enters)
	dst = appendInt(append(dst, `,"exits":`...), r.Exits)
	return append(appendFloat(append(dst, `,"dwellSeconds":`...), r.DwellSeconds), '}')
}

func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

func appendDuration(dst []byte, d time.Duration) []byte {
	return strconv.AppendInt(dst, int64(d), 10)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 on, with a one-digit negative
// exponent unpadded (1e-7, not 1e-07). A NaN or an infinity comes out as
// a word that is not JSON, so the validator encoding/json runs over every
// MarshalJSON result refuses it — an error, as encoding/json's own is.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// keysPool holds the slices map keys are sorted in.
var keysPool = sync.Pool{New: func() any { return new([]string) }}

// appendObject appends m as encoding/json writes a map with string keys:
// null when nil, otherwise every entry in sorted key order.
func appendObject[V any](dst []byte, m map[string]V, appendValue func([]byte, V) []byte) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	kp := keysPool.Get().(*[]string)
	keys := (*kp)[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(append(appendJSONString(dst, k), ':'), m[k])
	}
	clear(keys)
	*kp = keys[:0]
	keysPool.Put(kp)
	return append(dst, '}')
}

// shardRollupFields is ShardRollup without its UnmarshalJSON: what
// encoding/json decodes a reply into when the parse below declines it.
type shardRollupFields ShardRollup

// internPool holds the interners a parse names devices and rooms
// through, one per concurrent read, so a recurring population costs no
// string per read.
var internPool = sync.Pool{New: func() any { return wire.Interner{} }}

// UnmarshalJSON decodes a shard's rollup reply to exactly the value
// encoding/json decodes it to. The layout encoding/json writes — which is
// what every shard sends — is parsed straight into maps sized from the
// reply's device and room counts (the device count capped by what the
// reply's length can hold, since a peer sent it), names interned. Any
// other input — whitespace, other key order or case, unknown keys, an
// escaped name, a receiver already holding maps — is decoded by
// encoding/json itself.
func (sr *ShardRollup) UnmarshalJSON(data []byte) error {
	if sr.Rooms == nil && sr.DeviceRooms == nil && sr.DwellNanos == nil {
		names := internPool.Get().(wire.Interner)
		p := rollupParser{LayoutReader: wire.LayoutReader{Buf: data}, names: names}
		out, ok := p.shardRollup()
		internPool.Put(names)
		if ok {
			*sr = out
			return nil
		}
	}
	return json.Unmarshal(data, (*shardRollupFields)(sr))
}

// rollupParser reads the layout encoding/json writes for a ShardRollup,
// on the cursor the JSON upload door reads its layout with: the fields in
// declaration order and every integer within int64. Each method reports
// false at the first byte outside that layout; what it accepts decodes to
// what encoding/json decodes it to. Inside an object a key may repeat and
// come in any order — the last entry wins, as it does for encoding/json.
type rollupParser struct {
	wire.LayoutReader
	names wire.Interner
}

// minDeviceEntry is the shortest deviceRooms entry, `"":"",`: what bounds
// the map a reply's device count may presize.
const minDeviceEntry = 6

func (p *rollupParser) shardRollup() (out ShardRollup, ok bool) {
	devices, ok := p.key(`{"devices":`)
	if !ok {
		return out, false
	}
	events, ok := p.key(`,"events":`)
	if !ok || !p.Lit(`,"rooms":`) {
		return out, false
	}
	out.Devices, out.Events = int(devices), int(events)
	// Each map is read by its own loop: handing the value parse to a
	// shared one as a func value would move the parser to the heap.
	if out.Rooms, ok = openObject[RoomRollup](p, 0); !ok {
		return out, false
	}
	for i, more := 0, out.Rooms != nil; more; i++ {
		var k string
		if k, more, ok = p.entry(i); ok && more {
			out.Rooms[k], ok = p.roomRollup()
		}
		if !ok {
			return out, false
		}
	}
	if !p.Lit(`,"deviceRooms":`) {
		return out, false
	}
	hint := min(max(out.Devices, 0), len(p.Buf)/minDeviceEntry)
	if out.DeviceRooms, ok = openObject[string](p, hint); !ok {
		return out, false
	}
	for i, more := 0, out.DeviceRooms != nil; more; i++ {
		var k string
		if k, more, ok = p.entry(i); ok && more {
			out.DeviceRooms[k], ok = p.name()
		}
		if !ok {
			return out, false
		}
	}
	if !p.Lit(`,"dwellNanos":`) {
		return out, false
	}
	if out.DwellNanos, ok = openObject[time.Duration](p, len(out.Rooms)); !ok {
		return out, false
	}
	for i, more := 0, out.DwellNanos != nil; more; i++ {
		var k string
		if k, more, ok = p.entry(i); ok && more {
			out.DwellNanos[k], ok = p.duration()
		}
		if !ok {
			return out, false
		}
	}
	return out, p.Lit(`}`) && len(p.Buf) == 0
}

// openObject reads null (a nil map) or the brace that opens an object,
// for a map presized by hint.
func openObject[V any](p *rollupParser, hint int) (map[string]V, bool) {
	if p.Lit("null") {
		return nil, true
	}
	if !p.Lit("{") {
		return nil, false
	}
	return make(map[string]V, hint), true
}

// entry reads what comes before an open object's i-th value: its closing
// brace (more is false), or — after a comma unless it is the first — the
// entry's name and colon.
func (p *rollupParser) entry(i int) (name string, more, ok bool) {
	if p.Lit("}") {
		return "", false, true
	}
	if i > 0 && !p.Lit(",") {
		return "", false, false
	}
	if name, ok = p.name(); !ok || !p.Lit(":") {
		return "", false, false
	}
	return name, true, true
}

func (p *rollupParser) roomRollup() (r RoomRollup, ok bool) {
	occupants, ok := p.key(`{"occupants":`)
	if !ok {
		return r, false
	}
	enters, ok := p.key(`,"enters":`)
	if !ok {
		return r, false
	}
	exits, ok := p.key(`,"exits":`)
	if !ok || !p.Lit(`,"dwellSeconds":`) {
		return r, false
	}
	r = RoomRollup{Occupants: int(occupants), Enters: int(enters), Exits: int(exits)}
	if r.DwellSeconds, ok = p.Float(); !ok || !p.Lit("}") {
		return r, false
	}
	return r, true
}

// key consumes prefix and the integer after it.
func (p *rollupParser) key(prefix string) (int64, bool) {
	if !p.Lit(prefix) {
		return 0, false
	}
	return p.Int()
}

func (p *rollupParser) duration() (time.Duration, bool) {
	n, ok := p.Int()
	return time.Duration(n), ok
}

// name reads a device or room name through the interner.
func (p *rollupParser) name() (string, bool) {
	raw, ok := p.Str()
	if !ok {
		return "", false
	}
	return p.names.Get(raw), true
}

// The public read replies without reflection: OccupancySnapshot, Rollup
// and DwellReply write themselves (MarshalJSON). The bytes are
// encoding/json's own — its field order, its map keys in sorted byte
// order, its HTML-safe strings (appendJSONString), its float format, null
// for a nil map — so every writer, WriteJSON included, sends what it
// always sent, and encoding/json is the oracle the fuzz target in
// replyjson_test.go holds them to. A write then costs allocations per
// reply, not per room or device: the keys are sorted in a pooled slice.
// Nothing here parses: a shard's summary crosses to the gateway in
// binary (AppendSummary, ParseSummary).
package bms

import (
	"math"
	"slices"
	"strconv"
	"sync"

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
		dst = appendInt(append(dst, `{"devices":`...), r.Devices)
		dst = appendInt(append(dst, `,"events":`...), r.Events)
		return append(appendObject(append(dst, `,"rooms":`...), r.Rooms, appendRoomRollup), '}')
	})
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

func appendRoomRollup(dst []byte, r RoomRollup) []byte {
	dst = appendInt(append(dst, `{"occupants":`...), r.Occupants)
	dst = appendInt(append(dst, `,"enters":`...), r.Enters)
	dst = appendInt(append(dst, `,"exits":`...), r.Exits)
	return append(appendFloat(append(dst, `,"dwellSeconds":`...), r.DwellSeconds), '}')
}

func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

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

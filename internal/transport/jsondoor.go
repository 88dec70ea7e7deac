// The JSON ingest door: how a server takes the body a device (or its
// relay) uploads as JSON — one Report object, or the batch array — and
// lands it in a wire.Batch, the form every ingest path works on, without
// building a string per identity on the way.
package transport

import (
	"encoding/json"
	"sync"

	"occusim/internal/ibeacon"
	"occusim/internal/wire"
)

// JSONUpload is the decode target of the JSON ingest doors. A body is
// read first by a layout parse of the exact bytes json.Marshal writes for
// a []Report or a Report — what every device and relay sends: no
// whitespace; keys device, atSeconds, epoch and seq when not zero,
// beacons, in that order, and id, distance, rssi; strings with no escape
// or control byte that are valid UTF-8; numbers that parse finite, the
// stamps integers within uint64; null or an array for beacons, null for a
// whole batch. At the first byte outside that layout it zeroes what it
// touched and hands the body to encoding/json, into element types that
// mirror Report's and BeaconReport's JSON shape field for field, so which
// keys match, what a duplicate key, a null, an escape, invalid UTF-8 or a
// wrong-typed value does all stay encoding/json's. Either way a beacon id
// is parsed where it lies, and a device name is copied into capacity the
// element keeps and becomes a string only through the batch's interner
// (for encoding/json, both through encoding.TextUnmarshaler). What the
// upload holds is read once, by AppendTo.
//
// A JSONUpload is pooled (GetJSONUpload / Release) and recycled warm: both
// decodes reuse the capacity they find, so an upload costs neither the
// report slice, nor each report's beacons growing 0 → 1 → 2 → 4 → 8, nor a
// device buffer. It also exposes whatever an element last held — neither
// decode zeroes a slice it re-extends, and encoding/json sets only the
// fields an object names. Hence the contract Release keeps: every report
// up to the slice's capacity goes back zero with its device buffer at
// length 0, and every beacon up to each report's beacons' capacity goes
// back zero (which reads as "no id": an object that omits "id" must be
// refused, not inherit the last upload's), with only capacity kept.
type JSONUpload struct {
	reports []jsonReport
}

type jsonReport struct {
	Device    deviceText   `json:"device"`
	AtSeconds float64      `json:"atSeconds"`
	Epoch     uint64       `json:"epoch,omitempty"`
	Seq       uint64       `json:"seq,omitempty"`
	Beacons   []jsonBeacon `json:"beacons"`
}

type jsonBeacon struct {
	ID       beaconIDText `json:"id"`
	Distance float64      `json:"distance"`
	RSSI     float64      `json:"rssi"`
}

// deviceText is a device name as the decoder unquoted it. A struct, not a
// named []byte: a JSON null must leave it as it is, as it leaves a string.
type deviceText struct{ name []byte }

// UnmarshalText implements encoding.TextUnmarshaler.
func (d *deviceText) UnmarshalText(text []byte) error {
	d.name = append(d.name[:0], text...)
	return nil
}

// beaconIDText is a beacon identity parsed from the decoder's bytes. An
// identity that does not parse is remembered, not returned: a decode error
// would refuse the body before the door's lease gate, and a bad identity
// is refused after it, by AppendTo, as EncodeReports refuses it. The zero
// value is the identity no key named — the empty string, which does not
// parse either.
type beaconIDText struct {
	id  ibeacon.BeaconID
	ok  bool
	bad string // what did not parse, for the error
}

// UnmarshalText implements encoding.TextUnmarshaler. A later duplicate key
// replaces an earlier one whole, as it would a string.
func (t *beaconIDText) UnmarshalText(text []byte) error {
	id, err := ibeacon.ParseBeaconID(text)
	*t = beaconIDText{id: id, ok: err == nil}
	if err != nil {
		t.bad = string(text)
	}
	return nil
}

// UnmarshalBatch decodes a batch route's body, the JSON array of reports.
// A null body is an upload of none.
func (u *JSONUpload) UnmarshalBatch(body []byte) error {
	if u.parseLayout(body, false) {
		return nil
	}
	u.reset()
	return json.Unmarshal(body, &u.reports)
}

// UnmarshalReport decodes a single-report route's body, one JSON object.
func (u *JSONUpload) UnmarshalReport(body []byte) error {
	if u.parseLayout(body, true) {
		return nil
	}
	u.reset()
	u.reports = extend(u.reports)
	return json.Unmarshal(body, &u.reports[0])
}

// parseLayout is the layout parse: it reads the bytes json.Marshal writes
// for a []Report, or a Report when single, into the elements the capacity
// keeps, and reports false at the first byte outside that layout, leaving
// the elements it touched for reset to zero. (The two arrays are read by
// two loops: handing the element parse to a shared one as a func value
// would move the cursor to the heap.)
func (u *JSONUpload) parseLayout(body []byte, single bool) bool {
	l := wire.LayoutReader{Buf: body}
	u.reports = u.reports[:0]
	switch {
	case single:
		u.reports = extend(u.reports)
		return u.reports[0].parse(&l) && len(l.Buf) == 0
	case l.Lit("null"), l.Lit("[]"):
	case !l.Lit("["):
		return false
	default:
		for {
			u.reports = extend(u.reports)
			if !u.reports[len(u.reports)-1].parse(&l) {
				return false
			}
			if l.Lit("]") {
				break
			}
			if !l.Lit(",") {
				return false
			}
		}
	}
	return len(l.Buf) == 0
}

// parse reads one report object in json.Marshal's layout.
func (r *jsonReport) parse(l *wire.LayoutReader) bool {
	if !l.Lit(`{"device":`) {
		return false
	}
	name, ok := l.Str()
	if !ok || !l.Lit(`,"atSeconds":`) {
		return false
	}
	r.Device.name = append(r.Device.name[:0], name...)
	if r.AtSeconds, ok = l.Float(); !ok {
		return false
	}
	r.Epoch, r.Seq = 0, 0
	if l.Lit(`,"epoch":`) {
		if r.Epoch, ok = l.Uint(); !ok {
			return false
		}
	}
	if l.Lit(`,"seq":`) {
		if r.Seq, ok = l.Uint(); !ok {
			return false
		}
	}
	r.Beacons = r.Beacons[:0]
	switch {
	case l.Lit(`,"beacons":null}`), l.Lit(`,"beacons":[]}`):
		return true
	case !l.Lit(`,"beacons":[`):
		return false
	}
	for {
		r.Beacons = extend(r.Beacons)
		if !r.Beacons[len(r.Beacons)-1].parse(l) {
			return false
		}
		if l.Lit("]}") {
			return true
		}
		if !l.Lit(",") {
			return false
		}
	}
}

// parse reads one beacon object in json.Marshal's layout.
func (bc *jsonBeacon) parse(l *wire.LayoutReader) bool {
	if !l.Lit(`{"id":`) {
		return false
	}
	id, ok := l.Str()
	if !ok || !l.Lit(`,"distance":`) {
		return false
	}
	_ = bc.ID.UnmarshalText(id)
	if bc.Distance, ok = l.Float(); !ok || !l.Lit(`,"rssi":`) {
		return false
	}
	bc.RSSI, ok = l.Float()
	return ok && l.Lit("}")
}

// extend lengthens s by one element, taking the next one the capacity
// keeps — zero under Release's contract, with its own capacity kept —
// before growing.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// AppendTo appends the decoded upload to b — EncodeReports for an upload
// that never was a []Report. A beacon identity that did not parse fails
// the whole upload with the error ParseBeaconID gives for it.
func (u *JSONUpload) AppendTo(b *wire.Batch) error {
	for i := range u.reports {
		r := &u.reports[i]
		b.AddReport(b.Intern(r.Device.name), r.AtSeconds, r.Epoch, r.Seq)
		for k := range r.Beacons {
			bc := &r.Beacons[k]
			if !bc.ID.ok {
				_, err := ibeacon.ParseBeaconID(bc.ID.bad)
				return err
			}
			b.AddBeacon(wire.Beacon{ID: bc.ID.id, Distance: bc.Distance, RSSI: bc.RSSI})
		}
	}
	return nil
}

var jsonUploadPool = sync.Pool{New: func() any { return new(JSONUpload) }}

// GetJSONUpload returns an empty upload target from the pool.
func GetJSONUpload() *JSONUpload { return jsonUploadPool.Get().(*JSONUpload) }

// What a pooled target may keep: a one-off giant upload's report slice, a
// report's beacons past any real scan cycle's, a device buffer a hostile
// name grew — none of them goes back.
const (
	pooledReportsMax = 4096
	pooledBeaconsMax = 64
	pooledDeviceMax  = 256
)

// Release hands u back to the pool under the zeroing contract (see
// JSONUpload). Nothing may hold into u past it, which holds because
// AppendTo copies: identities by value, device names through the
// interner.
func (u *JSONUpload) Release() {
	if u.reset() {
		jsonUploadPool.Put(u)
	}
}

// reset empties u to its capacity, keeping the capacity, and reports
// whether that is worth pooling.
func (u *JSONUpload) reset() bool {
	// A null body leaves nothing to keep.
	all := u.reports[:cap(u.reports)]
	if len(all) == 0 || len(all) > pooledReportsMax {
		u.reports = nil
		return false
	}
	for i := range all {
		beacons := all[i].Beacons[:cap(all[i].Beacons)]
		if len(beacons) > pooledBeaconsMax {
			beacons = nil
		}
		clear(beacons)
		name := all[i].Device.name
		if cap(name) > pooledDeviceMax {
			name = nil
		}
		all[i] = jsonReport{Device: deviceText{name[:0]}, Beacons: beacons[:0]}
	}
	u.reports = all[:0]
	return true
}

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

// JSONUpload is the decode target of the JSON ingest doors. Its element
// types mirror Report's and BeaconReport's JSON shape field for field —
// same keys, same Go kinds, so which keys match, what a duplicate key, a
// null, an escape, invalid UTF-8 or a wrong-typed value does all stay
// encoding/json's — except that the two identities take the decoder's
// unquoted bytes as they are (encoding.TextUnmarshaler): a beacon id is
// parsed where it lies, a device name is copied into capacity the element
// keeps and becomes a string only through the batch's interner. What the
// upload holds is read once, by AppendTo.
//
// A JSONUpload is pooled (GetJSONUpload / Release) and recycled warm: the
// decoder reuses the capacity it finds, so an upload costs neither the
// report slice, nor each report's beacons growing 0 → 1 → 2 → 4 → 8, nor a
// device buffer. It also exposes whatever an element last held — the
// decoder does not zero a slice it re-extends, and an object sets only the
// fields it names. Hence the contract Release keeps: every report up to
// the slice's capacity goes back zero with its device buffer at length 0,
// and every beacon up to each report's beacons' capacity goes back zero
// (which reads as "no id": an object that omits "id" must be refused, not
// inherit the last upload's), with only capacity kept.
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
	return json.Unmarshal(body, &u.reports)
}

// UnmarshalReport decodes a single-report route's body, one JSON object.
func (u *JSONUpload) UnmarshalReport(body []byte) error {
	if cap(u.reports) == 0 {
		u.reports = make([]jsonReport, 1)
	}
	u.reports = u.reports[:1]
	return json.Unmarshal(body, &u.reports[0])
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

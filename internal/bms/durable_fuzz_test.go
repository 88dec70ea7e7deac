package bms

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"occusim/internal/ibeacon"
	"occusim/internal/wire"
)

// obsRecordBatch is the codec tests' batch: two devices, non-finite
// floats, a beacon-less and an unsequenced report, a non-ASCII name.
func obsRecordBatch() (*wire.Batch, []string) {
	id := ibeacon.BeaconID{UUID: ibeacon.MustUUID("B9407F30-F5F8-466E-AFF9-25556B57FE6D"), Major: 7, Minor: 1024}
	b := &wire.Batch{}
	b.AddReport("phone-01", 90, 3, 12)
	b.AddBeacon(wire.Beacon{ID: id, Distance: 1.25, RSSI: -62})
	b.AddBeacon(wire.Beacon{ID: id, Distance: math.Inf(1), RSSI: math.NaN()})
	b.AddReport("phone-01", 92.000000001, 3, 13)
	b.AddBeacon(wire.Beacon{ID: id, Distance: 0})
	b.AddReport("téléphone-→", math.NaN(), 0, 0)
	return b, []string{"kitchen", "kitchen", ""}
}

// FuzzObsRecord throws arbitrary bytes at the observation record
// decoder — the wire payload plus rooms suffix every durably ingested
// batch is logged as. The WAL frame checksum already screens disk
// corruption, so everything reaching this decoder claims to be a
// record — the decoder must still never panic, never allocate from a
// hostile count, and anything it accepts must be a fixed point of the
// codec: re-encoding the decoded record and decoding again yields
// byte-identical canonical bytes.
func FuzzObsRecord(f *testing.F) {
	b, rooms := obsRecordBatch()
	real := appendObsRecord(nil, b, nil, rooms)
	f.Add(real)
	f.Add(appendObsRecord(nil, &wire.Batch{}, nil, nil))
	f.Add(real[:len(real)/2])
	f.Add([]byte{recObsTag})
	// More identities than the payload's table holds: the ones past it are
	// spelled out at every sighting, and the record is still a fixed point.
	crowded, sightings := &wire.Batch{}, make([]string, 60)
	for i := range sightings {
		crowded.AddReport("relay", float64(i), 1, uint64(i+1))
		for k := 0; k < 10; k++ {
			crowded.AddBeacon(wire.Beacon{ID: ibeacon.BeaconID{Minor: uint16((10*i + k) % 300)}, Distance: float64(k), RSSI: -60})
		}
		sightings[i] = "hall"
	}
	f.Add(appendObsRecord(nil, crowded, nil, sightings))
	// Regression (from the previous codec, kept against this one): a
	// beacon count of 2^62 must fail the length check, not wrap past it
	// into a panicking make.
	overflow := binary.LittleEndian.AppendUint32(nil, 1) // 1 report, empty fields
	overflow = append(overflow, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	overflow = binary.AppendUvarint(overflow, 1<<62)
	f.Add(append(binary.LittleEndian.AppendUint32([]byte{recObsTag}, uint32(len(overflow))), overflow...))
	// A run longer than the reports left, and a split run the canonical
	// form merges.
	f.Add(append(appendObsRecord(nil, b, nil, nil), 9, 1, 'x'))
	f.Add(append(appendObsRecord(nil, b, nil, nil), 1, 1, 'x', 2, 1, 'x'))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The replay dispatcher only routes tagged payloads here.
		data[0] = recObsTag
		got, names := &wire.Batch{}, wire.Interner{}
		rooms, err := decodeObsRecord(data, got, nil, names)
		if err != nil {
			return
		}
		if len(rooms) != got.Len() {
			t.Fatalf("decoded %d reports but %d rooms", got.Len(), len(rooms))
		}
		canon := appendObsRecord(nil, got, nil, rooms)
		again := &wire.Batch{}
		rooms2, err := decodeObsRecord(canon, again, nil, names)
		if err != nil {
			t.Fatalf("re-decoding the canonical encoding: %v", err)
		}
		if re := appendObsRecord(nil, again, nil, rooms2); !bytes.Equal(canon, re) {
			t.Fatalf("codec is not a fixed point:\n canon: %x\n again: %x", canon, re)
		}
	})
}

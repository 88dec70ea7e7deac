package ibeacon

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

const exampleUUID = "B9407F30-F5F8-466E-AFF9-25556B57FE6D"

func TestParseUUID(t *testing.T) {
	u, err := ParseUUID(exampleUUID)
	if err != nil {
		t.Fatal(err)
	}
	if u.String() != exampleUUID {
		t.Fatalf("round trip = %s", u.String())
	}
	// Plain hex without hyphens parses to the same value.
	u2, err := ParseUUID(strings.ReplaceAll(exampleUUID, "-", ""))
	if err != nil {
		t.Fatal(err)
	}
	if u != u2 {
		t.Fatal("hyphenated and plain forms disagree")
	}
	// Lowercase input canonicalises to uppercase.
	u3, err := ParseUUID(strings.ToLower(exampleUUID))
	if err != nil {
		t.Fatal(err)
	}
	if u3.String() != exampleUUID {
		t.Fatalf("lowercase round trip = %s", u3.String())
	}
}

func TestParseUUIDErrors(t *testing.T) {
	plain := strings.ReplaceAll(exampleUUID, "-", "")
	bad := []string{
		"", "1234", exampleUUID + "00", "ZZ407F30-F5F8-466E-AFF9-25556B57FE6D",
		// Hyphens count only at the four canonical positions: these all
		// held 32 hex digits and used to parse to exampleUUID.
		plain + "----",
		"-B-9-4-07F30F5F8466EAFF925556B57FE6D",
		"B9407F30F-5F8-466E-AFF9-25556B57FE6D",
		"B9407F30-F5F8-466E-AFF9-25556B57FE6-",
		plain[:31], plain + "0",
	}
	for _, s := range bad {
		if _, err := ParseUUID(s); err == nil {
			t.Errorf("ParseUUID(%q) should fail", s)
		}
	}
}

func TestMustUUIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustUUID("nope")
}

func TestMarshalLayout(t *testing.T) {
	p := Packet{
		UUID:          MustUUID(exampleUUID),
		Major:         0x0102,
		Minor:         0xFFFE,
		MeasuredPower: -59,
	}
	b := p.Marshal()
	if len(b) != PacketLen {
		t.Fatalf("len = %d", len(b))
	}
	wantPrefix := []byte{0x02, 0x01, 0x06, 0x1A, 0xFF, 0x4C, 0x00, 0x02, 0x15}
	if !bytes.Equal(b[:9], wantPrefix) {
		t.Fatalf("prefix = % x", b[:9])
	}
	if b[25] != 0x01 || b[26] != 0x02 {
		t.Errorf("major bytes = % x, want big endian 01 02", b[25:27])
	}
	if b[27] != 0xFF || b[28] != 0xFE {
		t.Errorf("minor bytes = % x", b[27:29])
	}
	if int8(b[29]) != -59 {
		t.Errorf("measured power byte = %d", int8(b[29]))
	}
}

func TestUnmarshalRoundTrip(t *testing.T) {
	p := Packet{UUID: MustUUID(exampleUUID), Major: 7, Minor: 42, MeasuredPower: -61}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip: got %+v want %+v", got, p)
	}
}

func TestUnmarshalIgnoresTrailingBytes(t *testing.T) {
	p := Packet{UUID: MustUUID(exampleUUID), Major: 1, Minor: 2, MeasuredPower: -50}
	b := append(p.Marshal(), 0xAA)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatal("trailing byte changed decode")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("short packet err = %v", err)
	}
	p := Packet{UUID: MustUUID(exampleUUID)}
	b := p.Marshal()
	b[5] = 0x4D // corrupt company ID
	if _, err := Unmarshal(b); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("bad prefix err = %v", err)
	}
}

func TestPacketStringAndID(t *testing.T) {
	p := Packet{UUID: MustUUID(exampleUUID), Major: 3, Minor: 9, MeasuredPower: -59}
	if !strings.Contains(p.String(), "3/9") {
		t.Errorf("String = %s", p.String())
	}
	id := p.ID()
	if id.Major != 3 || id.Minor != 9 || id.UUID != p.UUID {
		t.Fatalf("ID = %+v", id)
	}
	if !strings.Contains(id.String(), exampleUUID) {
		t.Errorf("ID.String = %s", id.String())
	}
}

func TestBeaconIDHash64Distinct(t *testing.T) {
	u := MustUUID(exampleUUID)
	seen := make(map[uint64]BeaconID)
	for major := uint16(0); major < 30; major++ {
		for minor := uint16(0); minor < 30; minor++ {
			id := BeaconID{UUID: u, Major: major, Minor: minor}
			h := id.Hash64()
			if prev, dup := seen[h]; dup {
				t.Fatalf("hash collision: %v and %v", prev, id)
			}
			seen[h] = id
		}
	}
}

func TestRegionMatching(t *testing.T) {
	u := MustUUID(exampleUUID)
	other := MustUUID("00000000-0000-0000-0000-000000000001")
	p := Packet{UUID: u, Major: 5, Minor: 7}

	cases := []struct {
		r    Region
		want bool
	}{
		{NewRegion(u), true},
		{NewRegion(other), false},
		{Region{UUID: u, Major: 5, Minor: Any}, true},
		{Region{UUID: u, Major: 6, Minor: Any}, false},
		{Region{UUID: u, Major: 5, Minor: 7}, true},
		{Region{UUID: u, Major: 5, Minor: 8}, false},
	}
	for i, c := range cases {
		if got := c.r.Matches(p); got != c.want {
			t.Errorf("case %d (%v): Matches = %v, want %v", i, c.r, got, c.want)
		}
	}
}

func TestRegionValidate(t *testing.T) {
	u := MustUUID(exampleUUID)
	if err := NewRegion(u).Validate(); err != nil {
		t.Errorf("wildcard region invalid: %v", err)
	}
	if err := (Region{UUID: u, Major: 1, Minor: 2}).Validate(); err != nil {
		t.Errorf("full region invalid: %v", err)
	}
	// Minor without major is ill-formed (mirrors CLBeaconRegion).
	r := NewRegion(u)
	r.Minor = 5
	if err := r.Validate(); err == nil {
		t.Error("minor-only region should be invalid")
	}
	r = NewRegion(u)
	r.Major = 70000
	if err := r.Validate(); err == nil {
		t.Error("out-of-range major should be invalid")
	}
}

func TestRegionString(t *testing.T) {
	u := MustUUID(exampleUUID)
	s := Region{UUID: u, Major: 2, Minor: Any}.String()
	if !strings.Contains(s, "2/*") {
		t.Errorf("String = %s", s)
	}
}

func TestCalibrateMeasuredPower(t *testing.T) {
	got, err := CalibrateMeasuredPower([]float64{-58, -60, -59, -61, -57})
	if err != nil {
		t.Fatal(err)
	}
	if got != -59 {
		t.Fatalf("calibrated = %d, want -59", got)
	}
	if _, err := CalibrateMeasuredPower(nil); err == nil {
		t.Fatal("empty calibration should error")
	}
	// Clamping.
	lo, _ := CalibrateMeasuredPower([]float64{-500})
	if lo != -128 {
		t.Errorf("clamped low = %d", lo)
	}
	hi, _ := CalibrateMeasuredPower([]float64{500})
	if hi != 127 {
		t.Errorf("clamped high = %d", hi)
	}
}

// Property: Marshal/Unmarshal is the identity on packets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(uuid [16]byte, major, minor uint16, power int8) bool {
		p := Packet{UUID: uuid, Major: major, Minor: minor, MeasuredPower: power}
		got, err := Unmarshal(p.Marshal())
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a packet always matches the wildcard region of its own UUID,
// and any region it matches has the same UUID.
func TestQuickRegionConsistency(t *testing.T) {
	f := func(uuid [16]byte, major, minor uint16) bool {
		p := Packet{UUID: uuid, Major: major, Minor: minor}
		if !NewRegion(p.UUID).Matches(p) {
			return false
		}
		full := Region{UUID: p.UUID, Major: int32(major), Minor: int32(minor)}
		return full.Matches(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: UUID String/Parse round-trips.
func TestQuickUUIDRoundTrip(t *testing.T) {
	f := func(raw [16]byte) bool {
		u := UUID(raw)
		parsed, err := ParseUUID(u.String())
		return err == nil && parsed == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseBeaconID(t *testing.T) {
	want := BeaconID{UUID: MustUUID(exampleUUID), Major: 7, Minor: 65535}
	for _, s := range []string{
		exampleUUID + "/7/65535",
		strings.ToLower(exampleUUID) + "/7/65535",
	} {
		got, err := ParseBeaconID(s)
		if err != nil || got != want {
			t.Errorf("ParseBeaconID(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if got, err := ParseBeaconID(want.String()); err != nil || got != want {
		t.Errorf("String round trip = %v, %v", got, err)
	}
	bad := []string{
		"", exampleUUID, exampleUUID + "/1", exampleUUID + "/1/", exampleUUID + "//1",
		exampleUUID + "/65536/1", exampleUUID + "/1/65536", exampleUUID + "/1/99999999999999999999",
		// Signs and blanks: strconv.Atoi took these, aliasing /5/0.
		exampleUUID + "/+5/0", exampleUUID + "/5/-0", exampleUUID + "/ 5/0", exampleUUID + "/5/0 ",
		exampleUUID + "/1/2/3", exampleUUID + "/0x1/2",
		// The UUID part must be the grouped form.
		strings.ReplaceAll(exampleUUID, "-", "") + "----/1/2",
		exampleUUID[:35] + "/1/2/",
	}
	for _, s := range bad {
		if id, err := ParseBeaconID(s); err == nil {
			t.Errorf("ParseBeaconID(%q) = %v, should fail", s, id)
		}
	}
}

// FuzzParseBeaconID holds the identity parser to its contract: whatever
// it accepts round-trips through the canonical rendering, and accepting
// allocates nothing (the device's encode path parses every beacon of
// every report) — from a string or from the bytes a JSON door's decoder
// holds, which are one parser and must give one answer.
func FuzzParseBeaconID(f *testing.F) {
	f.Add(exampleUUID + "/1/2")
	f.Add(strings.ToLower(exampleUUID) + "/65535/0")
	f.Add(exampleUUID + "/+5/-0")
	f.Add(strings.ReplaceAll(exampleUUID, "-", "") + "----/1/2")
	f.Add("-B-9-4-07F30F5F8466EAFF925556B57FE6D/1/2")
	f.Add(exampleUUID + "/007/00000000000000000001")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseBeaconID(s)
		raw := []byte(s)
		fromBytes, bytesErr := ParseBeaconID(raw)
		if fromBytes != id || (err == nil) != (bytesErr == nil) || (err != nil && err.Error() != bytesErr.Error()) {
			t.Fatalf("ParseBeaconID(%q) = %v, %v from the string and %v, %v from its bytes", s, id, err, fromBytes, bytesErr)
		}
		if err != nil {
			return
		}
		again, err := ParseBeaconID(id.String())
		if err != nil || again != id {
			t.Fatalf("ParseBeaconID(%q) = %v, but its rendering %q parses to %v, %v", s, id, id.String(), again, err)
		}
		if !strings.EqualFold(s[:36], id.UUID.String()) {
			t.Fatalf("ParseBeaconID(%q) took a UUID that is not its first 36 bytes: %v", s, id)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = ParseBeaconID(s) }); n != 0 {
			t.Fatalf("ParseBeaconID(%q) allocates %v times on the accept path", s, n)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = ParseBeaconID(raw) }); n != 0 {
			t.Fatalf("ParseBeaconID(%q) allocates %v times on the accept path from bytes", s, n)
		}
	})
}

// Package ibeacon implements the iBeacon advertisement format (Section
// III of the paper): encoding and decoding of the 30-byte BLE advertising
// payload, beacon identities, region matching for the monitoring feature,
// and the TX-power calibration procedure from Section IV.A.
//
// Wire layout (Figure 1 of the paper; lengths per the Apple spec):
//
//	 3 bytes  flags AD structure          02 01 06
//	 2 bytes  manufacturer AD header      1A FF
//	 2 bytes  Apple company identifier    4C 00   (little endian 0x004C)
//	 2 bytes  beacon type + data length   02 15
//	16 bytes  proximity UUID
//	 2 bytes  major (big endian)
//	 2 bytes  minor (big endian)
//	 1 byte   measured power (int8 dBm at 1 m)
//
// The paper's Figure 1 rounds the trailing field to "2 bytes TX power";
// the deployed format carries a single signed byte, which is what we
// implement.
package ibeacon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// PacketLen is the total encoded length of an iBeacon advertisement.
const PacketLen = 30

// prefix is the fixed 9-byte header: flags, manufacturer AD header, Apple
// company ID, beacon type and data length. This is the "iBeacon prefix
// (9 bytes)" of Figure 1.
var prefix = [9]byte{0x02, 0x01, 0x06, 0x1A, 0xFF, 0x4C, 0x00, 0x02, 0x15}

// UUID is the 16-byte proximity UUID identifying beacons that belong to
// one organisation/region.
type UUID [16]byte

// ParseUUID parses the canonical 8-4-4-4-12 hyphenated form
// ("B9407F30-F5F8-466E-AFF9-25556B57FE6D", either case) or 32 plain hex
// digits — exactly those two shapes, so a string with hyphens anywhere
// else cannot alias a canonical one. It decodes in place: identities are
// parsed once per beacon per report on the device's encode path, and the
// accept path allocates nothing.
func ParseUUID(s string) (UUID, error) {
	u, ok := parseUUID(s)
	if !ok {
		return u, fmt.Errorf("ibeacon: UUID %q must be 32 hex digits, plain or grouped 8-4-4-4-12", s)
	}
	return u, nil
}

// text is what an identity is parsed from: the string a caller holds, or
// the bytes of one still sitting in a decode buffer.
type text interface{ string | []byte }

func parseUUID[S text](s S) (u UUID, ok bool) {
	grouped := len(s) == 36
	if grouped {
		if s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
			return u, false
		}
	} else if len(s) != 32 {
		return u, false
	}
	j := 0
	for i := range u {
		if grouped && (j == 8 || j == 13 || j == 18 || j == 23) {
			j++
		}
		hi, lo := unhex(s[j]), unhex(s[j+1])
		if hi > 15 || lo > 15 {
			return u, false
		}
		u[i] = hi<<4 | lo
		j += 2
	}
	return u, true
}

// unhex returns the value of one hex digit, or 0xff for anything else.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 0xff
}

// MustUUID is ParseUUID that panics on error, for test fixtures and
// examples.
func MustUUID(s string) UUID {
	u, err := ParseUUID(s)
	if err != nil {
		panic(err)
	}
	return u
}

// hexUpper is the digit set of the canonical uppercase rendering.
const hexUpper = "0123456789ABCDEF"

// String renders the canonical 8-4-4-4-12 uppercase form. Beacon IDs
// are stringified per report on the ingest and WAL hot paths, so this
// writes straight into a fixed buffer instead of going through
// hex.EncodeToString + ToUpper + concatenation.
func (u UUID) String() string {
	var b [36]byte
	j := 0
	for i, x := range u {
		switch i {
		case 4, 6, 8, 10:
			b[j] = '-'
			j++
		}
		b[j] = hexUpper[x>>4]
		b[j+1] = hexUpper[x&0x0f]
		j += 2
	}
	return string(b[:])
}

// Packet is a decoded iBeacon advertisement.
type Packet struct {
	// UUID is the proximity UUID shared by every beacon of one
	// deployment.
	UUID UUID
	// Major groups related beacons (e.g. one floor).
	Major uint16
	// Minor distinguishes individual beacons within a major group
	// (e.g. one room).
	Minor uint16
	// MeasuredPower is the calibrated RSSI in dBm observed 1 m from the
	// transmitter, used by receivers for ranging.
	MeasuredPower int8
}

// Marshal encodes the packet into its 30-byte wire form.
func (p Packet) Marshal() []byte {
	out := make([]byte, PacketLen)
	copy(out, prefix[:])
	copy(out[9:25], p.UUID[:])
	binary.BigEndian.PutUint16(out[25:27], p.Major)
	binary.BigEndian.PutUint16(out[27:29], p.Minor)
	out[29] = byte(p.MeasuredPower)
	return out
}

// Unmarshal errors.
var (
	ErrShortPacket = errors.New("ibeacon: packet too short")
	ErrBadPrefix   = errors.New("ibeacon: not an iBeacon advertisement")
)

// Unmarshal decodes a 30-byte wire payload. Extra trailing bytes (BLE
// advertising PDUs may carry up to 31 bytes) are ignored.
func Unmarshal(b []byte) (Packet, error) {
	var p Packet
	if len(b) < PacketLen {
		return p, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(b))
	}
	for i, want := range prefix {
		if b[i] != want {
			return p, fmt.Errorf("%w: byte %d is %#02x, want %#02x", ErrBadPrefix, i, b[i], want)
		}
	}
	copy(p.UUID[:], b[9:25])
	p.Major = binary.BigEndian.Uint16(b[25:27])
	p.Minor = binary.BigEndian.Uint16(b[27:29])
	p.MeasuredPower = int8(b[29])
	return p, nil
}

// ID returns the beacon identity (UUID, major, minor) of the packet.
func (p Packet) ID() BeaconID {
	return BeaconID{UUID: p.UUID, Major: p.Major, Minor: p.Minor}
}

// String renders a compact human-readable form.
func (p Packet) String() string {
	return fmt.Sprintf("iBeacon{%s %d/%d %d dBm@1m}", p.UUID, p.Major, p.Minor, p.MeasuredPower)
}

// BeaconID uniquely identifies one transmitter. It is a comparable value
// type usable as a map key.
type BeaconID struct {
	UUID  UUID
	Major uint16
	Minor uint16
}

// String renders "UUID/major/minor". Like UUID.String it sits on the
// per-report hot paths, so it appends rather than Sprintf.
func (id BeaconID) String() string {
	b := make([]byte, 0, 36+1+5+1+5)
	b = append(b, id.UUID.String()...)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(id.Major), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(id.Minor), 10)
	return string(b)
}

// Compare orders beacon identities lexicographically by (UUID, major,
// minor), returning −1, 0 or +1. Components that iterate sets of beacons
// sort by it so their outputs do not depend on map iteration order.
func (id BeaconID) Compare(other BeaconID) int {
	for k := range id.UUID {
		if id.UUID[k] != other.UUID[k] {
			if id.UUID[k] < other.UUID[k] {
				return -1
			}
			return 1
		}
	}
	switch {
	case id.Major != other.Major:
		if id.Major < other.Major {
			return -1
		}
		return 1
	case id.Minor != other.Minor:
		if id.Minor < other.Minor {
			return -1
		}
		return 1
	}
	return 0
}

// ParseBeaconID parses the "UUID/major/minor" form produced by
// BeaconID.String; it is the wire representation used by the REST API and
// the dataset files. The UUID is the grouped 36-character form; major and
// minor are unsigned decimals up to 65535 (no sign, no blanks), so "+5"
// or "-0" cannot alias a canonical identity. Like ParseUUID it allocates
// nothing on the accept path — and it takes the identity as a string or
// as the bytes a decoder is still holding, so a JSON door parses in place
// without making the string first.
func ParseBeaconID[S text](s S) (BeaconID, error) {
	id, ok := parseBeaconID(s)
	if !ok {
		return id, fmt.Errorf("ibeacon: bad beacon id %q (want UUID/major/minor, fields 0..65535)", string(s))
	}
	return id, nil
}

func parseBeaconID[S text](s S) (id BeaconID, ok bool) {
	if len(s) < 36+4 || s[36] != '/' { // grouped UUID plus "/M/m"
		return id, false
	}
	if id.UUID, ok = parseUUID(s[:36]); !ok {
		return id, false
	}
	rest := s[37:]
	slash := 0
	for slash < len(rest) && rest[slash] != '/' {
		slash++
	}
	if slash == len(rest) {
		return id, false
	}
	if id.Major, ok = parseField(rest[:slash]); !ok {
		return id, false
	}
	id.Minor, ok = parseField(rest[slash+1:])
	return id, ok
}

// parseField parses one unsigned decimal major/minor field.
func parseField[S text](s S) (uint16, bool) {
	if len(s) == 0 {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + int(c-'0'); v > math.MaxUint16 {
			return 0, false
		}
	}
	return uint16(v), true
}

// Hash64 folds the identity into 64 bits; the radio model uses it to give
// each transmitter an independent shadowing field.
func (id BeaconID) Hash64() uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, b := range id.UUID {
		mixByte(b)
	}
	mixByte(byte(id.Major >> 8))
	mixByte(byte(id.Major))
	mixByte(byte(id.Minor >> 8))
	mixByte(byte(id.Minor))
	return h
}

// Any marks a wildcard major/minor in a Region.
const Any int32 = -1

// Region is an iBeacon region in the sense of the monitoring API: a set
// of beacons sharing a proximity UUID, optionally narrowed to a major
// group or a single beacon. The client app is configured with the regions
// it must monitor (Section IV.C).
type Region struct {
	UUID  UUID
	Major int32 // Any or 0..65535
	Minor int32 // Any or 0..65535
}

// NewRegion returns a region matching every beacon with the given UUID.
func NewRegion(uuid UUID) Region {
	return Region{UUID: uuid, Major: Any, Minor: Any}
}

// Validate reports ill-formed constraint combinations.
func (r Region) Validate() error {
	if r.Minor != Any && r.Major == Any {
		return errors.New("ibeacon: region with minor constraint requires a major constraint")
	}
	for _, v := range []int32{r.Major, r.Minor} {
		if v != Any && (v < 0 || v > math.MaxUint16) {
			return fmt.Errorf("ibeacon: region field %d out of range", v)
		}
	}
	return nil
}

// Matches reports whether the packet belongs to the region.
func (r Region) Matches(p Packet) bool {
	if r.UUID != p.UUID {
		return false
	}
	if r.Major != Any && uint16(r.Major) != p.Major {
		return false
	}
	if r.Minor != Any && uint16(r.Minor) != p.Minor {
		return false
	}
	return true
}

// String renders the region with * for wildcards.
func (r Region) String() string {
	f := func(v int32) string {
		if v == Any {
			return "*"
		}
		return fmt.Sprint(v)
	}
	return fmt.Sprintf("region{%s %s/%s}", r.UUID, f(r.Major), f(r.Minor))
}

// CalibrateMeasuredPower derives the measured-power field from RSSI
// samples collected 1 m from the transmitter, as in the paper's
// calibration procedure (Section IV.A: adjust the TX power field until
// the detected distance reads about one metre). The mean sample, rounded
// to the nearest dBm and clamped to the int8 range, is returned. It
// errors on an empty sample set.
func CalibrateMeasuredPower(samplesDBm []float64) (int8, error) {
	if len(samplesDBm) == 0 {
		return 0, errors.New("ibeacon: calibration requires at least one sample")
	}
	var sum float64
	for _, s := range samplesDBm {
		sum += s
	}
	mean := sum / float64(len(samplesDBm))
	r := math.Round(mean)
	if r < math.MinInt8 {
		r = math.MinInt8
	}
	if r > math.MaxInt8 {
		r = math.MaxInt8
	}
	return int8(r), nil
}

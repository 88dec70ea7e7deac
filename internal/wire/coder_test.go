package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"occusim/internal/ibeacon"
)

// naiveDecode is the payload grammar read the obvious way — a growing
// slice of identities, a panic for anything short — for the fast decoder
// to be checked against. It shares no code with it but binary.Uvarint.
func naiveDecode(x []byte) (b *Batch, ok bool) {
	defer func() {
		if recover() != nil {
			b, ok = nil, false
		}
	}()
	take := func(n uint64) []byte {
		if n > uint64(len(x)) {
			panic("short")
		}
		p := x[:n]
		x = x[n:]
		return p
	}
	uvarint := func() uint64 {
		v, n := binary.Uvarint(x)
		if n <= 0 {
			panic("uvarint")
		}
		x = x[n:]
		return v
	}
	f64 := func() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(take(8))) }
	b = &Batch{}
	var ids []ibeacon.BeaconID
	var device string
	for i, count := 0, int(binary.LittleEndian.Uint32(take(4))); i < count; i++ {
		if code := uvarint(); i == 0 {
			device = string(take(code))
		} else if code > 0 {
			device = string(take(code - 1))
		}
		at := f64()
		epoch := uvarint()
		b.AddReport(device, at, epoch, uvarint())
		for n := uvarint(); n > 0; n-- {
			var bc Beacon
			if ref := take(1)[0]; ref > 0 {
				bc.ID = ids[ref-1]
			} else {
				raw := take(identLen)
				copy(bc.ID.UUID[:], raw)
				bc.ID.Major, bc.ID.Minor = binary.LittleEndian.Uint16(raw[16:]), binary.LittleEndian.Uint16(raw[18:])
				if len(ids) < 255 {
					ids = append(ids, bc.ID)
				}
			}
			bc.Distance = f64()
			bc.RSSI = f64()
			b.AddBeacon(bc)
		}
	}
	if len(x) != 0 {
		panic("trailing")
	}
	return b, true
}

// identBatch is reports × perReport beacons over `distinct` identities
// taken round robin, so each is named about as often as any other;
// devices names the device of report i as devices[i%len(devices)].
func identBatch(reports, perReport, distinct int, devices ...string) *Batch {
	b := &Batch{}
	for i, k := 0, 0; i < reports; i++ {
		b.AddReport(devices[i%len(devices)], float64(i), 1, uint64(i+1))
		for j := 0; j < perReport; j, k = j+1, k+1 {
			b.AddBeacon(mkBeacon(k%distinct, float64(k), -float64(40+k%50)))
		}
	}
	return b
}

// Hand-written payload pieces, for streams the encoder never writes.
func rawHead(reports int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(reports)) }

func rawReport(dst []byte, code uint64, name string, beacons int) []byte {
	dst = append(binary.AppendUvarint(dst, code), name...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(1))
	return binary.AppendUvarint(append(dst, 1, 1), uint64(beacons))
}

func rawBeacon(dst []byte, ref byte, id *ibeacon.BeaconID) []byte {
	dst = append(dst, ref)
	if id != nil {
		dst = append(dst, id.UUID[:]...)
		dst = binary.LittleEndian.AppendUint16(dst, id.Major)
		dst = binary.LittleEndian.AppendUint16(dst, id.Minor)
	}
	return append(dst, make([]byte, 16)...)
}

// TestBadRefsRefused: a beacon may refer only to an identity its payload
// has already named. A reference past the table — forward, to itself, or
// into an empty table — refuses the whole payload, from the decoder and
// from the forward pass alike, and says why.
func TestBadRefsRefused(t *testing.T) {
	a, z := mkBeacon(1, 0, 0).ID, mkBeacon(2, 0, 0).ID
	cases := map[string][]byte{
		"into an empty table": rawBeacon(rawReport(rawHead(1), 1, "d", 1), 1, nil),
		"to itself":           rawBeacon(rawBeacon(rawReport(rawHead(1), 1, "d", 2), 0, &a), 2, nil),
		"forward":             rawBeacon(rawBeacon(rawBeacon(rawReport(rawHead(1), 1, "d", 3), 0, &a), 2, nil), 0, &z),
		"in a later report":   rawBeacon(rawReport(rawBeacon(rawReport(rawHead(2), 1, "d", 1), 0, &a), 0, "", 1), 2, nil),
		"past a table one literal short of full": func() []byte {
			p := rawReport(rawHead(1), 1, "d", 255)
			for i := 0; i < 254; i++ {
				id := mkBeacon(i, 0, 0).ID
				p = rawBeacon(p, 0, &id)
			}
			return rawBeacon(p, 255, nil)
		}(),
	}
	for name, payload := range cases {
		if err := DecodePayload(payload, &Batch{}); err != errBadRef {
			t.Errorf("%s: DecodePayload says %v, want %v", name, err, errBadRef)
		}
		if _, err := ScanReports(payload, func([]byte, float64, uint64, uint64) error { return nil }); err != errBadRef {
			t.Errorf("%s: ScanReports says %v, want %v", name, err, errBadRef)
		}
		if _, ok := naiveDecode(payload); ok {
			t.Errorf("%s: the reference decoder takes it", name)
		}
	}
}

// TestDeviceRunCoding: the first report's name is coded by its length —
// it has no predecessor to repeat, so a 0 there is the empty name, which
// ingest refuses as it always has — and from the second report on 0 is
// "the same device again". The forward pass hands fn the predecessor's
// name for it.
func TestDeviceRunCoding(t *testing.T) {
	payload := rawReport(rawHead(4), 0, "", 0) // ""
	payload = rawReport(payload, 0, "", 0)     // again ""
	payload = rawReport(payload, 3, "ab", 0)   // "ab"
	payload = rawReport(payload, 0, "", 0)     // again "ab"
	want := []string{"", "", "ab", "ab"}
	b := &Batch{}
	if err := DecodePayload(payload, b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Devices, want) {
		t.Fatalf("decoded devices %q, want %q", b.Devices, want)
	}
	var seen []string
	if _, err := ScanReports(payload, func(device []byte, _ float64, _, _ uint64) error {
		seen = append(seen, string(device))
		return nil
	}); err != nil || !slices.Equal(seen, want) {
		t.Fatalf("ScanReports saw %q (%v), want %q", seen, err, want)
	}
	// The encoder writes a run as a run, and only a run: alternating
	// devices never form one.
	run := AppendPayload(nil, identBatch(11, 0, 1, "phone-1"))
	alt := AppendPayload(nil, identBatch(11, 0, 1, "phone-1", "phone-2"))
	if got := bytes.Count(run, []byte("phone-")); got != 1 {
		t.Errorf("one device throughout is named %d times", got)
	}
	if got := bytes.Count(alt, []byte("phone-")); got != 11 {
		t.Errorf("alternating devices are named %d times in 11 reports", got)
	}
}

// TestIdentityTableOverflow: the table holds 255 identities. The 256th
// distinct one is written literal every time it is sighted and defines
// nothing, on both sides — so reference 255 stays the 255th identity —
// and the batch round-trips exactly however many there are.
func TestIdentityTableOverflow(t *testing.T) {
	for _, distinct := range []int{1, 255, 256, 300} {
		want := identBatch(2*distinct/6+1, 6, distinct, "d") // every identity at least twice
		payload := AppendPayload(nil, want)
		got := &Batch{}
		if err := DecodePayload(payload, got); err != nil {
			t.Fatalf("%d identities: %v", distinct, err)
		}
		assertBatchEqual(t, want, got)
		literals := min(distinct, 255) + (len(want.Beacons)/distinct)*max(0, distinct-255) + max(0, len(want.Beacons)%distinct-255)
		if size := len(payload) - len(AppendPayload(nil, identBatch(want.Len(), 0, 1, "d"))); size != len(want.Beacons)*MinBeaconLen+literals*identLen {
			t.Errorf("%d identities: %d beacons take %d bytes, want %d literal", distinct, len(want.Beacons), size, literals)
		}
	}
	// By hand: 256 literals, then a reference to the last entry.
	payload := rawReport(rawHead(1), 1, "d", 257)
	for i := 0; i < 256; i++ {
		id := mkBeacon(i, 0, 0).ID
		payload = rawBeacon(payload, 0, &id)
	}
	payload = rawBeacon(payload, 255, nil)
	b := &Batch{}
	if err := DecodePayload(payload, b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Beacons[256].ID, mkBeacon(254, 0, 0).ID; got != want {
		t.Fatalf("reference 255 behind 256 literals is %v, want the 255th identity %v", got, want)
	}
}

// TestRepeatedLiteralIsLegal: only the decoded batch is contract. A
// stream that spells an identity out twice — as one that pads a uvarint
// — decodes to the batch the canonical stream does, each literal taking
// a table entry.
func TestRepeatedLiteralIsLegal(t *testing.T) {
	a := mkBeacon(1, 0, 0).ID
	payload := rawReport(rawHead(1), 1, "d", 3)
	payload = rawBeacon(rawBeacon(rawBeacon(payload, 0, &a), 0, &a), 2, nil)
	got := &Batch{}
	if err := DecodePayload(payload, got); err != nil {
		t.Fatal(err)
	}
	for i, bc := range got.Beacons {
		if bc.ID != a {
			t.Fatalf("beacon %d is %v, want %v", i, bc.ID, a)
		}
	}
	canon := AppendPayload(nil, got)
	if want := len(payload) - identLen; len(canon) != want {
		t.Fatalf("the canonical form is %d bytes, want %d: one literal", len(canon), want)
	}
	again := &Batch{}
	if err := DecodePayload(canon, again); err != nil {
		t.Fatal(err)
	}
	assertBatchEqual(t, got, again)
}

// TestFrameBytesPaperTraffic pins what the coder is for: the paper's
// traffic basis — one phone's upload of 11 reports, each sighting the
// house's six beacons — and a relay's upload of 16 phones' reports.
func TestFrameBytesPaperTraffic(t *testing.T) {
	if got := len(AppendFrame(nil, identBatch(11, 6, 6, "crowd-042"))); got > 1450 {
		t.Errorf("11 reports × 6 beacons of one device encode to %d bytes, want ≤ 1,450 (2,620 with every identity spelled out)", got)
	}
	var devices []string
	for i := 0; i < 16; i++ {
		devices = append(devices, fmt.Sprintf("crowd-%03d", i))
	}
	if got := len(AppendFrame(nil, identBatch(16, 6, 6, devices...))); got > 2300 {
		t.Errorf("16 reports of 16 devices over 6 identities encode to %d bytes, want ≤ 2,300", got)
	}
}

// TestSteadyStateEncodeAllocs is TestSteadyStateDecodeAllocs's twin: the
// table is part of the batch, so a warm encode allocates nothing — the
// device's 11-report upload, and a batch whose 300 identities overflow
// the table — and neither does that batch's decode.
func TestSteadyStateEncodeAllocs(t *testing.T) {
	for name, b := range map[string]*Batch{
		"device upload":  identBatch(11, 6, 6, "crowd-042"),
		"300 identities": identBatch(100, 6, 300, "a", "b"),
	} {
		frame := AppendFrame(nil, b)
		into := &Batch{}
		if err := DecodeFrame(frame, into); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { frame = AppendFrame(frame[:0], b) }); allocs != 0 {
			t.Errorf("%s: a warm AppendFrame allocates %.1f objects/op, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = DecodeFrame(frame, into) }); allocs != 0 {
			t.Errorf("%s: a warm DecodeFrame allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestEncodeManyIdentitiesIsLinear: the encoder finds an identity by
// hash, never by scanning its table, so a batch of 50,000 identities all
// different — what a hostile JSON upload can make the gateway encode —
// costs a small multiple of 50,000 sightings of one. (A scan of the full
// table would read ≈ 100 times as much.)
func TestEncodeManyIdentitiesIsLinear(t *testing.T) {
	const beacons = 50000
	best := func(b *Batch) time.Duration {
		var buf []byte
		d := time.Duration(math.MaxInt64)
		for i := 0; i < 7; i++ {
			start := time.Now()
			buf = AppendPayload(buf[:0], b)
			d = min(d, time.Since(start))
		}
		return d
	}
	same, distinct := best(identBatch(beacons/50, 50, 1, "d")), best(identBatch(beacons/50, 50, beacons, "d"))
	if distinct > 12*same {
		t.Fatalf("%d distinct identities encode in %v, %d repeated ones in %v: more than 12 times as long", beacons, distinct, beacons, same)
	}
	t.Logf("%d beacons: %v all distinct, %v all the same", beacons, distinct, same)
}

// BenchmarkCoder prices the coder on the paper's upload.
func BenchmarkCoder(b *testing.B) {
	batch := identBatch(11, 6, 6, "crowd-042")
	frame := AppendFrame(nil, batch)
	into := &Batch{}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frame = AppendFrame(frame[:0], batch)
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = DecodeFrame(frame, into)
		}
	})
	b.Run("scan", func(b *testing.B) {
		payload := frame[frameHeaderLen:]
		for i := 0; i < b.N; i++ {
			_, _ = ScanReports(payload, func([]byte, float64, uint64, uint64) error { return nil })
		}
	})
}

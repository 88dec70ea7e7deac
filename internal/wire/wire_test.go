package wire

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"occusim/internal/ibeacon"
)

// mkBeacon builds a distinct beacon identity from a small seed.
func mkBeacon(n int, dist, rssi float64) Beacon {
	var id ibeacon.BeaconID
	for i := range id.UUID {
		id.UUID[i] = byte(n + i)
	}
	id.Major = uint16(n)
	id.Minor = uint16(n * 7)
	return Beacon{ID: id, Distance: dist, RSSI: rssi}
}

// sampleBatch exercises every field class: multiple devices, repeated
// devices, empty beacon lists, non-finite floats, max stamps.
func sampleBatch() *Batch {
	b := &Batch{}
	b.AddReport("phone-1", 12.5, 1, 1)
	b.AddBeacon(mkBeacon(1, 0.5, -41))
	b.AddBeacon(mkBeacon(2, 3.25, -68.5))
	b.AddReport("phone-2", math.Inf(1), math.MaxUint64, 0)
	b.AddReport("phone-1", math.NaN(), 2, 9)
	b.AddBeacon(mkBeacon(3, math.Inf(-1), math.NaN()))
	b.AddReport("", 0, 0, 0) // empty device name is encodable; ingest rejects it
	return b
}

// sameFloat compares floats with NaN equal to NaN, bit-level intent.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func assertBatchEqual(t *testing.T, want, got *Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("decoded %d reports, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Devices[i] != want.Devices[i] {
			t.Fatalf("report %d device %q, want %q", i, got.Devices[i], want.Devices[i])
		}
		if !sameFloat(got.At[i], want.At[i]) {
			t.Fatalf("report %d at %v, want %v", i, got.At[i], want.At[i])
		}
		if got.Epoch[i] != want.Epoch[i] || got.Seq[i] != want.Seq[i] {
			t.Fatalf("report %d stamps (%d,%d), want (%d,%d)",
				i, got.Epoch[i], got.Seq[i], want.Epoch[i], want.Seq[i])
		}
		gb, wb := got.ReportBeacons(i), want.ReportBeacons(i)
		if len(gb) != len(wb) {
			t.Fatalf("report %d has %d beacons, want %d", i, len(gb), len(wb))
		}
		for j := range wb {
			if gb[j].ID != wb[j].ID || !sameFloat(gb[j].Distance, wb[j].Distance) || !sameFloat(gb[j].RSSI, wb[j].RSSI) {
				t.Fatalf("report %d beacon %d = %+v, want %+v", i, j, gb[j], wb[j])
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	want := sampleBatch()
	frame := AppendFrame(nil, want)
	got := &Batch{}
	if err := DecodeFrame(frame, got); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	assertBatchEqual(t, want, got)
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	frame := AppendFrame(nil, &Batch{})
	got := &Batch{}
	if err := DecodeFrame(frame, got); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("decoded %d reports from an empty batch", got.Len())
	}
}

func TestBatchReuseAcrossFrames(t *testing.T) {
	// A pooled batch decodes frame after frame; each decode must fully
	// replace the previous contents.
	b := &Batch{}
	big := sampleBatch()
	if err := DecodeFrame(AppendFrame(nil, big), b); err != nil {
		t.Fatal(err)
	}
	small := &Batch{}
	small.AddReport("solo", 1, 1, 2)
	small.AddBeacon(mkBeacon(9, 1.5, -50))
	if err := DecodeFrame(AppendFrame(nil, small), b); err != nil {
		t.Fatal(err)
	}
	assertBatchEqual(t, small, b)
}

func TestSteadyStateDecodeAllocs(t *testing.T) {
	// The zero-alloc claim: once the intern table has seen the device
	// population and the column slices have grown, decoding further
	// frames of the same shape allocates nothing.
	src := &Batch{}
	for i := 0; i < 32; i++ {
		src.AddReport("device-"+strings.Repeat("x", i%4), float64(i), 1, uint64(i))
		src.AddBeacon(mkBeacon(i, float64(i), -float64(40+i)))
	}
	frame := AppendFrame(nil, src)
	b := &Batch{}
	if err := DecodeFrame(frame, b); err != nil { // warm the slices + intern table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeFrame(frame, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeFrame allocates %.1f objects/op, want 0", allocs)
	}
}

func TestDecodeFrameRejectsTrailingBytes(t *testing.T) {
	frame := AppendFrame(nil, sampleBatch())
	if err := DecodeFrame(append(frame, 0x00), &Batch{}); err == nil {
		t.Fatal("DecodeFrame accepted a frame with trailing bytes")
	}
}

func TestDecodeFrameShort(t *testing.T) {
	frame := AppendFrame(nil, sampleBatch())
	for _, cut := range []int{0, 1, frameHeaderLen - 1, frameHeaderLen, len(frame) - 1} {
		if err := DecodeFrame(frame[:cut], &Batch{}); err == nil {
			t.Fatalf("DecodeFrame accepted a frame truncated to %d bytes", cut)
		}
	}
}

func TestScanWholeStream(t *testing.T) {
	var stream []byte
	want := 0
	for i := 0; i < 5; i++ {
		b := &Batch{}
		b.AddReport("dev", float64(i), 1, uint64(i))
		stream = AppendFrame(stream, b)
		want++
	}
	seen := 0
	valid, err := Scan(stream, func(_ uint64, payload []byte) error {
		seen++
		return DecodePayload(payload, &Batch{})
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if valid != len(stream) || seen != want {
		t.Fatalf("Scan consumed %d/%d bytes over %d frames, want %d frames", valid, len(stream), seen, want)
	}
}

func TestScanTornTail(t *testing.T) {
	// WAL-scanner contract: a frame truncated mid-payload is a torn
	// tail — the valid prefix stands and no error is reported.
	whole := AppendFrame(nil, sampleBatch())
	stream := append(append([]byte(nil), whole...), whole[:len(whole)-3]...)
	frames := 0
	valid, err := Scan(stream, func(uint64, []byte) error { frames++; return nil })
	if err != nil {
		t.Fatalf("torn tail must not error, got %v", err)
	}
	if valid != len(whole) || frames != 1 {
		t.Fatalf("valid=%d frames=%d, want valid=%d frames=1", valid, frames, len(whole))
	}
}

func TestScanCorruption(t *testing.T) {
	whole := AppendFrame(nil, sampleBatch())
	cases := map[string]func([]byte) []byte{
		"bad version": func(s []byte) []byte { s[len(whole)] ^= 0xFF; return s },
		"bad crc":     func(s []byte) []byte { s[len(s)-1] ^= 0x01; return s },
		"oversized length": func(s []byte) []byte {
			s[len(whole)+1] = 0xFF
			s[len(whole)+2] = 0xFF
			s[len(whole)+3] = 0xFF
			s[len(whole)+4] = 0xFF
			return s
		},
	}
	for name, corrupt := range cases {
		stream := append(append([]byte(nil), whole...), whole...)
		stream = corrupt(stream)
		frames := 0
		valid, err := Scan(stream, func(uint64, []byte) error { frames++; return nil })
		if err == nil {
			t.Fatalf("%s: corruption must error", name)
		}
		if valid != len(whole) || frames != 1 {
			t.Fatalf("%s: valid=%d frames=%d, want the clean prefix (%d bytes, 1 frame)",
				name, valid, frames, len(whole))
		}
	}
}

// TestScanLogFrames pins the write-ahead-log frame: generation and
// payload round-trip, log and upload frames share one stream, and the
// checksum covers the generation word.
func TestScanLogFrames(t *testing.T) {
	stream := AppendLogFrame(nil, 7, []byte("seven"))
	stream = AppendFrame(stream, sampleBatch())
	stream = AppendLogFrame(stream, 1<<60, nil)
	type rec struct {
		gen     uint64
		payload string
	}
	var got []rec
	valid, err := Scan(stream, func(gen uint64, p []byte) error {
		got = append(got, rec{gen, string(p)})
		return nil
	})
	if err != nil || valid != len(stream) {
		t.Fatalf("Scan: valid=%d/%d err=%v", valid, len(stream), err)
	}
	want := []rec{{7, "seven"}, {0, string(AppendPayload(nil, sampleBatch()))}, {1 << 60, ""}}
	if len(got) != len(want) {
		t.Fatalf("scanned %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = (%d, %q), want (%d, %q)", i, got[i].gen, got[i].payload, want[i].gen, want[i].payload)
		}
	}
	stream[frameHeaderLen] ^= 0x01 // the first frame's generation
	if valid, err := Scan(stream, func(uint64, []byte) error { return nil }); err == nil || valid != 0 {
		t.Fatalf("a flipped generation bit scanned clean: valid=%d err=%v", valid, err)
	}
}

// TestScanZeroTail pins the WAL half of the tail contract: a damaged
// frame with nothing but zeros behind its header is a torn final write
// over preallocated blocks (valid prefix, no error); the same damage
// with one real byte after it is corrupted history.
func TestScanZeroTail(t *testing.T) {
	whole := AppendLogFrame(nil, 3, []byte("committed"))
	torn := AppendLogFrame(nil, 3, []byte("torn-write"))
	for i := frameHeaderLen; i < len(torn); i++ {
		torn[i] = 0 // only the version, length and checksum landed
	}
	cases := map[string][]byte{
		"preallocated zeros":   make([]byte, 64),
		"header then zeros":    torn,
		"header, zeros, zeros": append(append([]byte(nil), torn...), make([]byte, 32)...),
		"oversized then zeros": append([]byte{LogVersion, 0xff, 0xff, 0xff, 0xff}, make([]byte, 40)...),
	}
	for name, tail := range cases {
		stream := append(append([]byte(nil), whole...), tail...)
		frames := 0
		valid, err := Scan(stream, func(uint64, []byte) error { frames++; return nil })
		if err != nil || valid != len(whole) || frames != 1 {
			t.Fatalf("%s: valid=%d frames=%d err=%v, want the clean prefix (%d bytes, 1 frame)", name, valid, frames, err, len(whole))
		}
		stream = append(stream, 0x5a) // real data after the damage
		if valid, err := Scan(stream, func(uint64, []byte) error { return nil }); err == nil || valid != len(whole) {
			t.Fatalf("%s + live byte: valid=%d err=%v, want a loud error at %d", name, valid, err, len(whole))
		}
	}
}

// TestReadFrameStream reads sections back one at a time, reusing one
// buffer, and refuses a flipped byte, a stream cut mid-frame and a log
// frame.
func TestReadFrameStream(t *testing.T) {
	var stream []byte
	var want []string
	for _, p := range []string{"header", "", strings.Repeat("x", 5000), "tail"} {
		head := len(stream)
		stream = append(BeginFrame(stream), p...)
		EndFrame(stream, head)
		want = append(want, p)
	}
	var buf []byte
	r := bytes.NewReader(stream)
	for i, w := range want {
		got, err := ReadFrame(r, &buf)
		if err != nil || string(got) != w {
			t.Fatalf("frame %d: %q, %v; want %q", i, got, err, w)
		}
	}
	if _, err := ReadFrame(r, &buf); err != io.EOF {
		t.Fatalf("clean end of stream: %v, want io.EOF", err)
	}
	for name, bad := range map[string][]byte{
		"cut mid-payload": stream[:len(stream)-2],
		"cut mid-header":  stream[:len(stream)-len("tail")-3],
		"flipped payload": flipped(stream, frameHeaderLen+2),
		"flipped crc":     flipped(stream, 6),
		"log frame":       AppendLogFrame(nil, 1, []byte("x")),
	} {
		r := bytes.NewReader(bad)
		var err error
		for err == nil {
			_, err = ReadFrame(r, &buf)
		}
		if err == io.EOF {
			t.Fatalf("%s: stream read to a clean EOF", name)
		}
	}
}

func flipped(data []byte, at int) []byte {
	out := append([]byte(nil), data...)
	out[at] ^= 0x40
	return out
}

func TestScanReportsMatchesDecode(t *testing.T) {
	want := sampleBatch()
	// The forward pass refuses what Check refuses of a report's numbers —
	// the sample's second report is timed +Inf — so a forwarded section
	// with one never reaches its shard.
	_, err := ScanReports(AppendPayload(nil, want), func([]byte, float64, uint64, uint64) error { return nil })
	if err == nil || err.Error() != "report 1: time +Inf is not a finite number" {
		t.Fatalf("ScanReports of a report timed +Inf: %v", err)
	}
	want.At[1], want.At[2] = 13, 14
	want.Beacons[2] = mkBeacon(3, 1.5, -60)
	payload := AppendPayload(nil, want)
	i := 0
	n, err := ScanReports(payload, func(device []byte, at float64, epoch, seq uint64) error {
		if string(device) != want.Devices[i] || !sameFloat(at, want.At[i]) ||
			epoch != want.Epoch[i] || seq != want.Seq[i] {
			t.Fatalf("report %d meta (%q,%v,%d,%d), want (%q,%v,%d,%d)",
				i, device, at, epoch, seq, want.Devices[i], want.At[i], want.Epoch[i], want.Seq[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("ScanReports: %v", err)
	}
	if n != want.Len() || i != want.Len() {
		t.Fatalf("ScanReports visited %d/%d reports, want %d", i, n, want.Len())
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	shards := []string{"shard-0", "shard-1", "shard-2"}
	batches := make([]*Batch, len(shards))
	var body []byte
	for i, name := range shards {
		b := &Batch{}
		b.AddReport("dev-"+name, float64(i), 1, uint64(i+1))
		b.AddBeacon(mkBeacon(i, 2, -55))
		batches[i] = b
		body = AppendSection(body, name)
		body = AppendFrame(body, b)
	}
	i := 0
	err := ScanSections(body, func(shard []byte, frame, payload []byte) error {
		if string(shard) != shards[i] {
			t.Fatalf("section %d shard %q, want %q", i, shard, shards[i])
		}
		got := &Batch{}
		if err := DecodeFrame(frame, got); err != nil {
			t.Fatalf("section %d frame: %v", i, err)
		}
		assertBatchEqual(t, batches[i], got)
		fromPayload := &Batch{}
		if err := DecodePayload(payload, fromPayload); err != nil {
			t.Fatalf("section %d payload: %v", i, err)
		}
		assertBatchEqual(t, batches[i], fromPayload)
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("ScanSections: %v", err)
	}
	if i != len(shards) {
		t.Fatalf("scanned %d sections, want %d", i, len(shards))
	}
}

func TestScanSectionsTruncated(t *testing.T) {
	body := AppendSection(nil, "shard-0")
	body = AppendFrame(body, sampleBatch())
	for _, cut := range []int{len(body) - 1, len(body) - 10, 3} {
		if err := ScanSections(body[:cut], func([]byte, []byte, []byte) error { return nil }); err == nil {
			t.Fatalf("ScanSections accepted a body truncated to %d bytes", cut)
		}
	}
}

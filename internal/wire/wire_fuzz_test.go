package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzWireFrame throws arbitrary byte streams at the frame scanner and
// holds it to the recovery contract the WAL stands on: never panic,
// never read past the image, and classify every stream into a valid
// prefix of whole frames plus either a torn tail (not an error) or
// corruption (a loud error). The blessed prefix must itself be a clean stream —
// re-scanning it yields the same frames — and every payload the
// scanner hands out must decode.
func FuzzWireFrame(f *testing.F) {
	one := AppendFrame(nil, sampleBatch())
	small := &Batch{}
	small.AddReport("d", 1, 1, 1)
	two := AppendFrame(append([]byte(nil), one...), small)
	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3])                // torn final frame
	f.Add(AppendFrame(nil, &Batch{}))      // empty batch
	corrupt := append([]byte(nil), two...) // flip a payload byte under the CRC
	corrupt[len(one)+frameHeaderLen+2] ^= 0xff
	f.Add(corrupt)
	badver := append([]byte(nil), one...)
	badver[0] ^= 0xff
	f.Add(badver)
	huge := make([]byte, frameHeaderLen)
	huge[0] = Version
	binary.LittleEndian.PutUint32(huge[1:5], uint32(MaxFramePayload+1))
	f.Add(append(huge, 0xab))
	logged := AppendLogFrame(append([]byte(nil), one...), 9, []byte("log record"))
	f.Add(logged)
	f.Add(append(logged, make([]byte, 24)...)) // preallocated zero tail

	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		valid, err := Scan(data, func(_ uint64, p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		})
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if err == nil && valid < len(data) {
			// A clean stop short of the end must be a torn tail: the
			// remainder is too short to hold the frame it announces, or
			// is all zeros behind that frame's header.
			rest := data[valid:]
			if len(rest) >= frameHeaderLen && !zeroTail(rest) {
				hdr := frameHeaderLen
				if rest[0] == LogVersion {
					hdr = LogFrameHeaderLen
				}
				n := binary.LittleEndian.Uint32(rest[1:5])
				if (rest[0] != Version && rest[0] != LogVersion) || n > MaxFramePayload || len(rest) >= hdr+int(n) {
					t.Fatalf("scanner stopped at %d without an error, with a whole or damaged frame and live data remaining", valid)
				}
			}
		}

		// The blessed prefix is a clean stream: scanning it again finds
		// the same frames and no tail at all.
		var again [][]byte
		revalid, reerr := Scan(data[:valid], func(_ uint64, p []byte) error {
			again = append(again, append([]byte(nil), p...))
			return nil
		})
		if reerr != nil || revalid != valid {
			t.Fatalf("re-scan of the valid prefix: valid=%d err=%v (first pass said %d)", revalid, reerr, valid)
		}
		if len(again) != len(payloads) {
			t.Fatalf("re-scan found %d frames, first pass %d", len(again), len(payloads))
		}
		b := &Batch{}
		for i := range again {
			if !bytes.Equal(again[i], payloads[i]) {
				t.Fatalf("frame %d diverged between scans", i)
			}
			// Every payload the scanner blesses decodes (the CRC passed,
			// so the batch grammar must parse or the encoder/decoder
			// disagree) — unless the fuzzer forged a frame whose CRC
			// happens to cover garbage, which DecodePayload must still
			// reject without panicking.
			_ = DecodePayload(payloads[i], b)
		}

		// A fresh frame appended to the prefix is found by a re-scan —
		// the stream stays appendable after a repair truncation.
		next := &Batch{}
		next.AddReport("appended", 2, 3, 4)
		extended := AppendFrame(append([]byte(nil), data[:valid]...), next)
		n := 0
		exvalid, exerr := Scan(extended, func(uint64, []byte) error { n++; return nil })
		if exerr != nil || exvalid != len(extended) || n != len(payloads)+1 {
			t.Fatalf("append after repair: valid=%d/%d frames=%d err=%v, want %d frames",
				exvalid, len(extended), n, exerr, len(payloads)+1)
		}
	})
}

// FuzzWireBatchRoundTrip builds a batch from fuzzed report fields,
// encodes it, and asserts the decode is bit-identical — floats compared
// on their bits so NaN payloads and infinities survive.
func FuzzWireBatchRoundTrip(f *testing.F) {
	f.Add("phone-1", 12.5, uint64(1), uint64(2), uint16(100), uint16(7), 0.5, -41.0, 3)
	f.Add("", math.NaN(), uint64(0), uint64(0), uint16(0), uint16(0), math.Inf(1), math.Inf(-1), 0)
	f.Add("device-with-a-long-name-\x00\xff", math.MaxFloat64, uint64(math.MaxUint64), uint64(math.MaxUint64),
		uint16(65535), uint16(65535), -0.0, 1e-300, 17)
	f.Fuzz(func(t *testing.T, device string, at float64, epoch, seq uint64,
		major, minor uint16, dist, rssi float64, beacons int) {
		if beacons < 0 || beacons > 64 {
			return
		}
		want := &Batch{}
		// Two reports sharing the device name exercise interning; the
		// fuzzed one carries the beacon fan-out.
		want.AddReport(device, at, epoch, seq)
		for i := 0; i < beacons; i++ {
			bc := mkBeacon(i, dist, rssi)
			bc.ID.Major, bc.ID.Minor = major, minor
			want.AddBeacon(bc)
		}
		want.AddReport(device, at+1, epoch, seq+1)

		frame := AppendFrame(nil, want)
		got := &Batch{}
		if err := DecodeFrame(frame, got); err != nil {
			t.Fatalf("DecodeFrame of a freshly encoded batch: %v", err)
		}
		assertBatchEqual(t, want, got)

		// Encoding the decoded batch reproduces the same bytes — the
		// codec is canonical, which the CRC forwarding path relies on.
		if !bytes.Equal(AppendFrame(nil, got), frame) {
			t.Fatal("re-encode of the decoded batch diverged from the original frame")
		}
	})
}

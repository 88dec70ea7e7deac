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

// FuzzWireBatchRoundTrip holds the batch codec to its contract from the
// bytes' side. For any payload x the decoder and a naive reference decoder
// (coder_test.go) agree — on whether x is a payload at all, and bit for
// bit on the batch it is, floats compared on their bits so NaN payloads
// and infinities survive — and so does the forward pass, which reads the
// same grammar without the identities and refuses, besides, a payload
// whose times, distances or RSSIs are not all finite. For a payload that
// decodes to b, encode(b) is the canonical form: never longer than x,
// decoding to b again, and a fixed point of decode-then-encode — which is
// what lets a frame cut anywhere from the same reports be compared byte
// for byte.
func FuzzWireBatchRoundTrip(f *testing.F) {
	odd := &Batch{}
	odd.AddReport("", math.NaN(), 0, 0) // an empty name, first and repeated
	odd.AddBeacon(mkBeacon(1, math.Inf(1), math.Inf(-1)))
	odd.AddReport("", math.MaxFloat64, math.MaxUint64, math.MaxUint64)
	odd.AddBeacon(mkBeacon(1, math.Copysign(0, -1), math.NaN()))
	odd.AddReport("device-with-a-long-name-\x00\xff", -0.0, 1, 2)
	for _, b := range []*Batch{
		sampleBatch(), odd,
		identBatch(11, 6, 6, "phone-1"),            // one device throughout
		identBatch(12, 6, 6, "phone-1", "phone-2"), // alternating: no run ever forms
		identBatch(3, 0, 1, "a", "b"),              // 0 identities
		identBatch(4, 2, 1, "a"),                   // 1
		identBatch(100, 6, 255, "a"),               // the table exactly full
		identBatch(100, 6, 256, "a"),               // one past it
		identBatch(100, 6, 300, "a", "a", "b"),     // well past it
	} {
		f.Add(AppendPayload(nil, b))
	}
	id := mkBeacon(7, 0, 0).ID
	f.Add(rawBeacon(rawBeacon(rawReport(rawHead(1), 1, "d", 2), 2, nil), 0, &id)) // a forward ref
	f.Add(rawBeacon(rawBeacon(rawReport(rawHead(1), 1, "d", 2), 0, &id), 2, nil)) // a self ref
	f.Add(rawBeacon(rawBeacon(rawReport(rawHead(1), 1, "d", 2), 0, &id), 0, &id)) // a repeated literal

	f.Fuzz(func(t *testing.T, x []byte) {
		got := &Batch{}
		err := DecodePayload(x, got)
		want, ok := naiveDecode(x)
		if (err == nil) != ok {
			t.Fatalf("DecodePayload says %v, the reference decoder ok=%v", err, ok)
		}
		i := 0
		n, scanErr := ScanReports(x, func(device []byte, at float64, epoch, seq uint64) error {
			if ok && (string(device) != want.Devices[i] || !sameFloat(at, want.At[i]) || epoch != want.Epoch[i] || seq != want.Seq[i]) {
				t.Fatalf("ScanReports: report %d is (%q,%v,%d,%d), the batch says (%q,%v,%d,%d)",
					i, device, at, epoch, seq, want.Devices[i], want.At[i], want.Epoch[i], want.Seq[i])
			}
			i++
			return nil
		})
		if (scanErr == nil) != (ok && finiteNumbers(want)) || (scanErr == nil && (n != want.Len() || i != n)) {
			t.Fatalf("ScanReports says %v after %d of %d reports, the reference decoder ok=%v", scanErr, i, n, ok)
		}
		if !ok {
			return
		}
		assertBatchEqual(t, want, got)

		canon := AppendPayload(nil, got)
		if len(canon) > len(x) {
			t.Fatalf("the canonical form is %d bytes, longer than the %d it was decoded from", len(canon), len(x))
		}
		again := &Batch{}
		if err := DecodePayload(canon, again); err != nil {
			t.Fatalf("decoding the canonical form: %v", err)
		}
		assertBatchEqual(t, got, again)
		if !bytes.Equal(AppendPayload(nil, again), canon) {
			t.Fatal("re-encoding the decoded canonical form diverged from it")
		}
	})
}

// finiteNumbers reports whether every time, distance and RSSI in b is a
// finite number: what the forward pass asks of a payload beyond its
// grammar.
func finiteNumbers(b *Batch) bool {
	for _, at := range b.At {
		if math.IsNaN(at) || math.IsInf(at, 0) {
			return false
		}
	}
	for _, bc := range b.Beacons {
		for _, f := range []float64{bc.Distance, bc.RSSI} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"occusim/internal/wire"
)

// FuzzWALScan throws arbitrary log images at recovery's scanner — the
// wire package's frame scanner behind the compaction barrier, exactly
// as replay runs it — and holds it to its contract: never panic, never
// read past the image, and classify every image into a valid prefix
// plus either a torn tail (recoverable, truncate) or in-history
// corruption (loud error). The prefix it blesses must itself be a clean
// log: re-scanning it yields the same records, and a fresh append after
// the repair point must be recoverable — the invariants crash recovery
// stands on.
func FuzzWALScan(f *testing.F) {
	frame := func(gen uint64, payload []byte) []byte { return wire.AppendLogFrame(nil, gen, payload) }
	one := frame(1, []byte(`{"t":"evict","device":"phone"}`))
	two := append(append([]byte{}, one...), frame(2, []byte("second"))...)
	f.Add([]byte{}, uint64(0))
	f.Add(one, uint64(0))
	f.Add(two, uint64(2))                           // barrier skips gen 1
	f.Add(two[:len(two)-3], uint64(0))              // torn final frame
	f.Add(append(one, 0, 0, 0, 0, 0, 0), uint64(0)) // zero-padded tail
	f.Add(append(one, frame(1, nil)...), uint64(0)) // empty payload
	corrupt := append([]byte{}, two...)
	corrupt[len(one)+20] ^= 0xff // flip a byte inside the second frame's payload
	f.Add(corrupt, uint64(0))
	bad := append([]byte{}, one...)
	bad[5] ^= 0xff // break the first checksum with live data after it
	f.Add(append(bad, one...), uint64(0))
	huge := make([]byte, wire.LogFrameHeaderLen)
	huge[0] = wire.LogVersion
	binary.LittleEndian.PutUint32(huge[1:5], uint32(wire.MaxFramePayload+1))
	f.Add(append(huge, 0xab), uint64(0))
	torn := frame(3, []byte("only the header landed"))
	for i := 9; i < len(torn); i++ {
		torn[i] = 0
	}
	f.Add(append(append([]byte{}, one...), torn...), uint64(0)) // header over preallocated zeros

	f.Fuzz(func(t *testing.T, data []byte, barrier uint64) {
		var payloads [][]byte
		collect := func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		}
		valid, top, err := scanLive(data, barrier, collect)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}

		// The blessed prefix is a clean log: scanning it again finds the
		// same records and no tail at all. This is what the repair
		// truncation relies on.
		var again [][]byte
		revalid, retop, reerr := scanLive(data[:valid], barrier, func(p []byte) error {
			again = append(again, append([]byte(nil), p...))
			return nil
		})
		if reerr != nil || revalid != valid || retop != top {
			t.Fatalf("re-scan of the valid prefix: valid=%d top=%d err=%v (first pass said %d, %d)", revalid, retop, reerr, valid, top)
		}
		if len(again) != len(payloads) {
			t.Fatalf("re-scan found %d records, first pass %d", len(again), len(payloads))
		}
		for i := range again {
			if !bytes.Equal(again[i], payloads[i]) {
				t.Fatalf("record %d diverged between scans", i)
			}
		}

		// After the repair point, the log must accept new frames: a
		// fresh live frame appended to the prefix is found by recovery.
		if err == nil {
			appended := append(append([]byte(nil), data[:valid]...), frame(barrier, []byte("post-repair"))...)
			n := 0
			last := []byte(nil)
			av, atop, aerr := scanLive(appended, barrier, func(p []byte) error {
				n++
				last = append([]byte(nil), p...)
				return nil
			})
			if aerr != nil || av != len(appended) {
				t.Fatalf("append after repair not recoverable: valid=%d/%d err=%v", av, len(appended), aerr)
			}
			// The highest stamp is what the log's generation restarts
			// from: it must see the skipped frames and the new one alike.
			if atop != max(top, barrier) {
				t.Fatalf("highest stamp %d after appending a frame at %d over a prefix whose highest was %d", atop, barrier, top)
			}
			if n != len(payloads)+1 || !bytes.Equal(last, []byte("post-repair")) {
				t.Fatalf("append after repair: %d records, last %q", n, last)
			}
		}
	})
}

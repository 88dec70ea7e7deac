package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"occusim/internal/ibeacon"
	"occusim/internal/raceflag"
	"occusim/internal/rng"
	"occusim/internal/wire"
)

// recordShard is a shard that keeps every frame it is delivered and
// answers report j of it with "<name>#j", so a test can tell which shard
// took a report and where in its frame the report sat. Only the ingest
// path may touch it: the embedded Shard is nil.
type recordShard struct {
	Shard
	name   string
	frames [][]byte
}

func (s *recordShard) Name() string { return s.name }

func (s *recordShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	s.frames = append(s.frames, slices.Clone(frame))
	rooms := make([]string, reports)
	for j := range rooms {
		rooms[j] = fmt.Sprintf("%s#%d", s.name, j)
	}
	return rooms, nil
}

// FuzzSplitBatch holds the server-side split to its contract for an
// arbitrary batch over an arbitrary ring: every shard is sent at most one
// frame; the frames decode to exactly the input's reports, each in its
// ring owner's frame and in input order there (so one device's reports
// keep their order), and each frame is byte for byte what wire.AppendFrame
// makes of that shard's own reports — the cut writes its frames
// interleaved, each with its own identity table, and a device that split
// the upload itself must have sent the same bytes; the rooms come back in
// input order; and an upload with a report no server would take reaches
// no shard at all.
func FuzzSplitBatch(f *testing.F) {
	src := rng.New(5)
	for _, n := range []int{0, 1, 7, 64} {
		b := new(wire.Batch)
		for i := 0; i < n; i++ {
			b.AddReport(fmt.Sprintf("dev-%d", src.Intn(n)), float64(i), 1, uint64(i+1))
			for k := src.Intn(4); k > 0; k-- {
				b.AddBeacon(wire.Beacon{ID: ibeacon.BeaconID{Major: uint16(k), Minor: uint16(i)}, Distance: float64(k), RSSI: -60})
			}
		}
		f.Add(wire.AppendPayload(nil, b), uint8(n), uint8(n))
	}
	// More identities than a frame's table holds, every one sighted by
	// several devices: each shard's frame overflows on its own.
	crowded := new(wire.Batch)
	for i := 0; i < 120; i++ {
		crowded.AddReport(fmt.Sprintf("dev-%d", i%7), float64(i), 1, uint64(i+1))
		for k := 0; k < 10; k++ {
			crowded.AddBeacon(wire.Beacon{ID: ibeacon.BeaconID{Major: uint16((10*i + k) % 300)}, Distance: float64(k), RSSI: -60})
		}
	}
	f.Add(wire.AppendPayload(nil, crowded), uint8(3), uint8(0))
	nameless := new(wire.Batch)
	nameless.AddReport("a", 1, 0, 0)
	nameless.AddReport("", 2, 0, 0)
	f.Add(wire.AppendPayload(nil, nameless), uint8(3), uint8(0))

	f.Fuzz(func(t *testing.T, payload []byte, nShards, downMask uint8) {
		in := new(wire.Batch)
		if wire.DecodePayload(payload, in) != nil {
			return
		}
		shards := make([]*recordShard, 1+nShards%8)
		ring := make([]Shard, len(shards))
		for i := range shards {
			shards[i] = &recordShard{name: fmt.Sprintf("s%d", i)}
			ring[i] = shards[i]
		}
		g, err := New(ring, Config{})
		if err != nil {
			t.Fatal(err)
		}
		allDown := true
		for i := range shards {
			if downMask&(1<<i) != 0 {
				g.MarkDown(i)
			} else {
				allDown = false
			}
		}
		// The split works on the gateway's own copy of the upload: keep the
		// input beside it.
		b := new(wire.Batch)
		if err := wire.DecodePayload(payload, b); err != nil {
			t.Fatal(err)
		}
		sc := getUploadScratch()
		defer sc.release()
		err = g.split(b, sc)

		sent := 0
		for _, s := range shards {
			sent += len(s.frames)
		}
		switch {
		case in.Len() > 0 && slices.Contains(in.Devices, ""):
			if err == nil || sent != 0 {
				t.Fatalf("an upload with a nameless report: err %v, %d frames sent", err, sent)
			}
			return
		case in.Len() > 0 && allDown:
			if !errors.Is(err, ErrNoHealthyShards) || sent != 0 {
				t.Fatalf("every shard down: err %v, %d frames sent", err, sent)
			}
			return
		case err != nil:
			t.Fatalf("split: %v", err)
		}
		if len(sc.flat) != in.Len() {
			t.Fatalf("%d rooms for %d reports", len(sc.flat), in.Len())
		}
		got := make([]*wire.Batch, len(shards))
		for s, shard := range shards {
			if len(shard.frames) > 1 {
				t.Fatalf("shard %d was sent %d frames for one upload", s, len(shard.frames))
			}
			got[s] = new(wire.Batch)
			if len(shard.frames) == 1 {
				if err := wire.DecodeFrame(shard.frames[0], got[s]); err != nil {
					t.Fatalf("shard %d's frame: %v", s, err)
				}
				if got[s].Len() == 0 {
					t.Fatalf("shard %d was sent an empty frame", s)
				}
			}
		}
		next := make([]int, len(shards))
		own := make([]*wire.Batch, len(shards)) // each shard's reports, as its own batch
		for i, device := range in.Devices {
			owner, err := g.ShardFor(device)
			if err != nil {
				t.Fatal(err)
			}
			if own[owner] == nil {
				own[owner] = new(wire.Batch)
			}
			own[owner].AddReport(device, in.At[i], in.Epoch[i], in.Seq[i])
			for _, bc := range in.ReportBeacons(i) {
				own[owner].AddBeacon(bc)
			}
			fb, j := got[owner], next[owner]
			next[owner]++
			if j >= fb.Len() {
				t.Fatalf("report %d (%q) is missing from its owner shard %d's frame", i, device, owner)
			}
			if fb.Devices[j] != device || math.Float64bits(fb.At[j]) != math.Float64bits(in.At[i]) ||
				fb.Epoch[j] != in.Epoch[i] || fb.Seq[j] != in.Seq[i] ||
				!slices.EqualFunc(fb.ReportBeacons(j), in.ReportBeacons(i), sameBeacon) {
				t.Fatalf("report %d (%q) is not report %d of shard %d's frame", i, device, j, owner)
			}
			if want := fmt.Sprintf("s%d#%d", owner, j); sc.flat[i] != want {
				t.Fatalf("room %d is %q, want %q: the reassembly lost input order", i, sc.flat[i], want)
			}
		}
		for s, shard := range shards {
			if next[s] != got[s].Len() {
				t.Fatalf("shard %d's frame carries %d reports, %d are its own", s, got[s].Len(), next[s])
			}
			if own[s] != nil && !bytes.Equal(shard.frames[0], wire.AppendFrame(nil, own[s])) {
				t.Fatalf("shard %d's frame is not the frame of its own %d reports", s, own[s].Len())
			}
		}
	})
}

// TestAllocBudgetCut: the cut keeps one identity table per shard in the
// pooled scratch, so cutting 64 reports into 4 interleaved frames
// allocates nothing once warm — with the paper's six identities, and with
// more than any table holds.
func TestAllocBudgetCut(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	for _, distinct := range []int{6, 300} {
		b := new(wire.Batch)
		sc := getUploadScratch()
		for i := 0; i < 64; i++ {
			b.AddReport(fmt.Sprintf("dev-%d", i%16), float64(i), 1, uint64(i+1))
			for k := 0; k < 6; k++ {
				b.AddBeacon(wire.Beacon{ID: ibeacon.BeaconID{Major: uint16((6*i + k) % distinct)}, Distance: float64(k), RSSI: -60})
			}
			sc.shardOf = append(sc.shardOf, int32(i%16%4))
		}
		sc.cut(b, 4)
		if allocs := testing.AllocsPerRun(100, func() { sc.cut(b, 4) }); allocs != 0 {
			t.Errorf("%d identities: a warm cut of 64 reports over 4 shards allocates %.1f objects, want 0", distinct, allocs)
		}
		sc.shardOf = sc.shardOf[:0]
		sc.release()
	}
}

// sameBeacon compares bit for bit: a fuzzed distance may be NaN.
func sameBeacon(a, b wire.Beacon) bool {
	return a.ID == b.ID && math.Float64bits(a.Distance) == math.Float64bits(b.Distance) &&
		math.Float64bits(a.RSSI) == math.Float64bits(b.RSSI)
}

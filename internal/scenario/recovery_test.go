package scenario

import (
	"testing"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// TestSnapshotPlusTailCrashRecoversExact is the crash case the
// process-level drills do not reach on their own: a shard dies holding
// a snapshot AND a log tail. Durable shards ingest half the crowd's
// trace, compact, ingest the rest, and are abandoned without Close —
// what kill -9 leaves behind. A pool reopened over the directories must
// be byte-identical to a clean server fed every stream once. Uploads
// alternate between pre-split frames (logged as the received payload)
// and JSON batches (logged through the encoder), so both record
// sources sit on both sides of the snapshot.
func TestSnapshotPlusTailCrashRecoversExact(t *testing.T) {
	b := building.PaperHouse()
	cfg := testConfig
	streams, _, _ := experiments.SynthCrowdStreams(b, cfg.Devices, cfg.Reports, cfg.Seed)
	seq := transport.NewSequencer(1)
	for _, stream := range streams {
		for i := range stream {
			seq.Stamp(&stream[i])
		}
	}
	ref, err := Reference(b, streams, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}

	spec := Spec{Shards: cfg.Shards, Dir: t.TempDir(), Policy: store.FsyncBatch}
	open := func() (*fleet.LocalPool, *fleet.Gateway) {
		f, err := Build(b, spec, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		return f.Pool, f.Gateways[0]
	}
	pool, gw := open()
	feed := func(from, to int) {
		wb := &wire.Batch{}
		for _, stream := range streams {
			lane := laneBatch(stream[from:to], 8, 0, 1)
			for k, bt := range lane.Batches {
				if k%2 == 1 {
					if _, err := gw.IngestBatch(bt.Reports); err != nil {
						t.Fatal(err)
					}
					continue
				}
				wb.Reset()
				if err := transport.EncodeReports(wb, bt.Reports); err != nil {
					t.Fatal(err)
				}
				owner, err := gw.ShardFor(bt.Reports[0].Device)
				if err != nil {
					t.Fatal(err)
				}
				body := wire.AppendFrame(wire.AppendSection(nil, pool.Shards[owner].Name()), wb)
				var sec fleet.PresplitSection
				if err := wire.ScanSections(body, func(shard, frame, payload []byte) error {
					sec = fleet.PresplitSection{Shard: string(shard), Frame: frame, Payload: payload}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := gw.IngestPresplit(gw.RingDigest(), []fleet.PresplitSection{sec}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	half := cfg.Reports / 2
	feed(0, half)
	for _, srv := range pool.Servers {
		if err := srv.CompactWAL(); err != nil {
			t.Fatal(err)
		}
	}
	feed(half, cfg.Reports)
	tail := int64(0)
	for _, srv := range pool.Servers {
		tail += srv.WALSize()
	}
	if tail == 0 {
		t.Fatal("vacuous: no log tail behind the snapshots")
	}
	if err := VerifyExact(gw, ref); err != nil {
		t.Fatalf("before the crash: %v", err)
	}

	// No Close: the crash. Recover from snapshot + tail.
	pool2, gw2 := open()
	defer pool2.Close()
	if err := VerifyExact(gw2, ref); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	for i, srv := range pool2.Servers {
		for _, device := range srv.KnownDevices() {
			got, _ := srv.ExportDevice(device)
			want, _ := pool.Servers[i].ExportDevice(device)
			if got.Epoch != want.Epoch || got.Seq != want.Seq || got.Seq == 0 {
				t.Fatalf("shard %d device %s recovered mark (%d, %d), want (%d, %d)", i, device, got.Epoch, got.Seq, want.Epoch, want.Seq)
			}
		}
	}
}

package fleet_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// TestFrozenNewLocalPoolIsVolatileOpen: NewLocalPool builds the pool a
// volatile OpenLocalPool builds — the same shard names, so the same
// ring — and a gateway over either answers one stream room for room.
func TestFrozenNewLocalPoolIsVolatileOpen(t *testing.T) {
	b := building.PaperHouse()
	snap := trainSnapshot(t, b, 23)
	stream := synthStream(b, 8, 30, 5)
	var names [2][]string
	var rooms, occupancy [2][]byte
	for i, open := range []func() (*fleet.LocalPool, error){
		func() (*fleet.LocalPool, error) { return fleet.NewLocalPool(b, 3, 2, 200) },
		func() (*fleet.LocalPool, error) { return fleet.OpenLocalPool(b, 3, 2, 200, "", store.FsyncBatch) },
	} {
		pool, err := open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		for _, s := range pool.Shards {
			names[i] = append(names[i], s.Name())
		}
		gw, err := fleet.New(pool.Shards, fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.DistributeModel(snap); err != nil {
			t.Fatal(err)
		}
		got, err := gw.IngestBatch(stream)
		if err != nil {
			t.Fatal(err)
		}
		occ, err := gw.Occupancy()
		if err != nil {
			t.Fatal(err)
		}
		rooms[i], occupancy[i] = mustJSON(t, got), mustJSON(t, occ)
	}
	if !slices.Equal(names[0], names[1]) {
		t.Fatalf("shard names %v, want the volatile OpenLocalPool's %v", names[0], names[1])
	}
	if !bytes.Equal(rooms[0], rooms[1]) || !bytes.Equal(occupancy[0], occupancy[1]) {
		t.Fatalf("NewLocalPool's fleet answered\n%s\n%s\nwant\n%s\n%s", rooms[0], occupancy[0], rooms[1], occupancy[1])
	}
}

// TestFrozenIngestBatchIsIngestFrame: IngestBatch on either real shard
// leaves a server exactly where IngestFrame on the rendered frame leaves
// its twin, with the same rooms; and an identity the frame cannot carry
// is refused as the client's error before the shard hears of it.
func TestFrozenIngestBatchIsIngestFrame(t *testing.T) {
	b := building.PaperHouse()
	stream := synthStream(b, 4, 20, 9)
	bad := []transport.Report{{Device: "d", AtSeconds: 1, Beacons: []transport.BeaconReport{{ID: "not-a-beacon", Distance: 1, RSSI: -60}}}}
	kinds := map[string]func(*bms.Server) fleet.Shard{
		"local": func(srv *bms.Server) fleet.Shard {
			s, err := fleet.NewLocalShard("local", srv)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"http": func(srv *bms.Server) fleet.Shard {
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			s, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for kind, shardOf := range kinds {
		t.Run(kind, func(t *testing.T) {
			batchSrv, frameSrv := newServer(t, b), newServer(t, b)
			viaBatch, viaFrame := shardOf(batchSrv), shardOf(frameSrv)
			got, err := viaBatch.IngestBatch(stream)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ingestFrame(t, viaFrame, stream)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("IngestBatch rooms %q, IngestFrame rooms %q", got, want)
			}
			if g, w := mustJSON(t, batchSrv.Summary()), mustJSON(t, frameSrv.Summary()); !bytes.Equal(g, w) {
				t.Fatalf("IngestBatch left\n%s\nIngestFrame left\n%s", g, w)
			}

			fresh := newServer(t, b)
			_, err = shardOf(fresh).IngestBatch(bad)
			if v := transport.Classify(err); v.Class != transport.Rejected || v.Status != http.StatusBadRequest {
				t.Fatalf("an unparseable identity gave %v (%+v), want the client's error", err, v)
			}
			if devices := fresh.KnownDevices(); len(devices) != 0 {
				t.Fatalf("the refused batch reached the shard: %v", devices)
			}
		})
	}
}

// TestFrozenSetCodecChangesNothing: whichever codec SetCodec is handed,
// an HTTPShard makes the same requests and lands the same state as one
// it was never called on — one frame on the stream, never a batch POST.
func TestFrozenSetCodecChangesNothing(t *testing.T) {
	b := building.PaperHouse()
	stream := synthStream(b, 4, 20, 13)
	frame := plainFrame(t, stream)
	var requests, rooms, summary []string
	// The first shard is never handed a codec: the baseline.
	for i, codec := range []transport.Codec{0, transport.CodecJSON, transport.CodecBinary} {
		srv := newServer(t, b)
		var mu sync.Mutex
		var seen []string
		next := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.Method+" "+r.URL.Path+" upgrade="+r.Header.Get("Upgrade"))
			mu.Unlock()
			next.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			hs.SetCodec(codec)
		}
		got, err := hs.IngestFrame(frame, len(stream))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		requests = append(requests, string(mustJSON(t, seen)))
		mu.Unlock()
		rooms = append(rooms, string(mustJSON(t, got)))
		summary = append(summary, string(mustJSON(t, srv.Summary())))
	}
	for i := 1; i < len(requests); i++ {
		if requests[i] != requests[0] || rooms[i] != rooms[0] || summary[i] != summary[0] {
			t.Fatalf("after SetCodec the shard sent %s and answered %s, leaving %s;\nwithout it %s, %s, %s",
				requests[i], rooms[i], summary[i], requests[0], rooms[0], summary[0])
		}
	}
	if !strings.Contains(requests[0], wire.StreamPath) || strings.Contains(requests[0], transport.BatchPath) {
		t.Fatalf("the shard saw %s, want one stream upgrade and no batch POST", requests[0])
	}
}

package experiments

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/par"
	"occusim/internal/transport"
)

// CrowdFleetHTTPResult measures the networked ingest path end to end:
// the crowd streams through real loopback HTTP — device uplinks into a
// fleet.Handler gateway, the gateway into per-shard bms servers over
// HTTPShard clients' streams — in one device codec. Unlike CrowdFleet (which
// isolates per-shard compute), this harness times the whole stack:
// encode, HTTP exchange, gateway split or pre-split forward, shard
// ingest. The JSON/binary pair prices the device leg's protocol; the
// internal leg carries wire frames either way.
type CrowdFleetHTTPResult struct {
	// Devices, Shards and Reports mirror CrowdFleetResult.
	Devices, Shards, Reports int
	// Codec names the wire encoding the devices spoke.
	Codec string
	// Elapsed is the crowd's wall time; Throughput is Reports/Elapsed.
	Elapsed    time.Duration
	Throughput float64
	// DevicesTracked is the federated occupancy's device count.
	DevicesTracked int
	// PresplitForwarded and DigestMisses are the gateway's pre-split
	// counters — binary runs should forward and never miss.
	PresplitForwarded, DigestMisses float64
}

// Render prints the headline numbers.
func (r *CrowdFleetHTTPResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CrowdFleetHTTP(%s): %d devices over %d shards, %d reports in %v → %.0f reports/s\n",
		r.Codec, r.Devices, r.Shards, r.Reports, r.Elapsed.Round(time.Millisecond), r.Throughput)
	fmt.Fprintf(&b, "tracked %d devices; presplit forwarded %.0f, digest misses %.0f\n",
		r.DevicesTracked, r.PresplitForwarded, r.DigestMisses)
	return b.String()
}

// serveLoopback serves h on an ephemeral loopback port and returns the
// base URL plus a closer.
func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// CrowdFleetHTTP replays the synthetic crowd through the full
// networked stack in the given device codec: N bms shard servers each
// behind a real HTTP listener, a gateway of HTTPShard clients behind
// fleet.Handler on its own listener, and
// the device crowd uploading coalesced batches — plain JSON uplinks,
// or pre-splitting binary splitters against the gateway's published
// ring. devices defaults to 64, shards to 4.
func CrowdFleetHTTP(devices, shards int, seed uint64, codec transport.Codec) (*CrowdFleetHTTPResult, error) {
	if devices <= 0 {
		devices = 64
	}
	if shards <= 0 {
		shards = 4
	}
	b := building.PaperHouse()
	pool, err := fleet.NewLocalPool(b, shards, 2, 1000)
	if err != nil {
		return nil, err
	}

	ringShards := make([]fleet.Shard, shards)
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for i, srv := range pool.Servers {
		base, closeSrv, err := serveLoopback(srv.Handler())
		if err != nil {
			return nil, err
		}
		closers = append(closers, closeSrv)
		hs, err := fleet.NewHTTPShard(base, nil, transport.DefaultRetry())
		if err != nil {
			return nil, err
		}
		ringShards[i] = hs
	}
	gw, err := fleet.New(ringShards, fleet.Config{})
	if err != nil {
		return nil, err
	}
	met := obs.New()
	gw.Instrument(met)
	if err := TrainAndDistribute(gw, b, seed); err != nil {
		return nil, err
	}
	gwBase, closeGW, err := serveLoopback(fleet.Handler(gw, fleet.HandlerOptions{}))
	if err != nil {
		return nil, err
	}
	closers = append(closers, closeGW)

	var sink transport.Uplink
	if codec == transport.CodecBinary {
		sink = &transport.ShardSplitter{BaseURL: gwBase, Retry: transport.DefaultRetry()}
	} else {
		sink = &transport.HTTPUplink{BaseURL: gwBase, Retry: transport.DefaultRetry(), Codec: codec}
	}

	reportsPer := int(crowdWindow / crowdReportPeriod)
	streams, names, _ := SynthCrowdStreams(b, devices, reportsPer, seed)
	seq := transport.NewSequencer(1)

	res := &CrowdFleetHTTPResult{
		Devices: devices,
		Shards:  shards,
		Reports: devices * reportsPer,
		Codec:   codec.String(),
	}

	// Settle training's GC debt, then time the whole crowd streaming
	// concurrently through the shared uplink.
	runtime.GC()
	start := time.Now()
	err = par.ForEach(devices, func(d int) error {
		uplink, err := transport.NewBatchingUplink(sink, transport.BatchConfig{
			FlushSeconds: 20,
			Sequencer:    seq,
		})
		if err != nil {
			return err
		}
		for _, rep := range streams[d] {
			if err := uplink.Send(rep); err != nil {
				return err
			}
		}
		return uplink.Flush()
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Reports) / res.Elapsed.Seconds()
	}

	snap, err := gw.Occupancy()
	if err != nil {
		return nil, err
	}
	res.DevicesTracked = len(snap.Devices)
	if res.DevicesTracked != len(names) {
		return nil, fmt.Errorf("experiments: tracked %d of %d devices over HTTP", res.DevicesTracked, len(names))
	}
	counters := met.TakeSnapshot().Counters
	res.PresplitForwarded = counters["fleet_presplit_forwarded_total"]
	res.DigestMisses = counters["fleet_presplit_digest_miss_total"]
	if codec == transport.CodecBinary && res.PresplitForwarded == 0 {
		return nil, fmt.Errorf("experiments: binary run never forwarded a pre-split batch")
	}
	return res, nil
}

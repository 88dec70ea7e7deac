package scenario

import (
	"fmt"
	"runtime"
	"time"

	"occusim/internal/bms"
	"occusim/internal/experiments"
	"occusim/internal/obs"
	"occusim/internal/overload"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// The measured crowds: each is Run with a spec laid over the traffic's
// and a sink, and what it measures is in the Result. They skip the
// radio substrate — the streams are synthetic and deterministic — so
// the measured time is the report path alone, and like every Run they
// end in the oracle: the outcome is a pure function of (devices, seed),
// whatever the fleet's shape or the goroutines' interleaving. They live
// here and not in internal/experiments because this package imports
// that one for the streams and the model.

// crowdConfig sizes a measured crowd: five minutes at the crowd cadence.
func crowdConfig(devices, shards int, seed uint64) Config {
	return Config{
		Devices: devices,
		Reports: int(5 * time.Minute / experiments.CrowdReportPeriod),
		Shards:  shards,
		Seed:    seed,
	}
}

// PerSecond is the run's throughput: acknowledged reports over the
// driver's wall time (machine-dependent).
func (r *Result) PerSecond() float64 { return float64(r.Acked) / r.Elapsed.Seconds() }

// Render prints the headline numbers.
func (r *Result) Render() string {
	return fmt.Sprintf("%v\n%d reports acknowledged in %v → %.0f reports/s\n"+
		"tracked %d devices, %d events, final placement %.1f%%\n",
		r, r.Acked, r.Elapsed.Round(time.Millisecond), r.PerSecond(),
		r.DevicesTracked, r.EventsCommitted, 100*r.PlacementAccuracy)
}

// DeviceUplink is a crowd's shared HTTP sink in the given device codec
// (transport.HTTPUplink: what a binary uplink sends follows from what the
// target publishes and answers).
func DeviceUplink(baseURL string, codec transport.Codec) Sink {
	return &transport.HTTPUplink{BaseURL: baseURL, Retry: transport.DefaultRetry(), Codec: codec}
}

// CrowdIngest measures the server-side scaling axis: the clean crowd
// streamed straight into the one server of a one-shard fleet — batch
// decode, striped store and tracker ingest, scene-analysis
// classification; the gateway above it only distributes the model and
// answers the oracle.
func CrowdIngest(devices int, seed uint64) (*Result, error) {
	return crowdIngest(devices, seed, nil)
}

// CrowdIngestInstrumented is CrowdIngest with the telemetry registry
// attached, the metrics path a production bmsd runs; its throughput
// against CrowdIngest's prices the observability tax.
func CrowdIngestInstrumented(devices int, seed uint64) (*Result, error) {
	return crowdIngest(devices, seed, func(s *Spec) { s.Metrics = obs.New() })
}

// CrowdIngestDurable is CrowdIngest with the write-ahead log in the
// loop: every batch framed, checksummed and (policy permitting) synced
// on its way in; its throughput against CrowdIngest's prices the
// durability tax.
func CrowdIngestDurable(devices int, seed uint64, dir string, policy store.FsyncPolicy) (*Result, error) {
	return crowdIngest(devices, seed, func(s *Spec) { s.Dir, s.Policy = dir, policy })
}

func crowdIngest(devices int, seed uint64, lay func(*Spec)) (*Result, error) {
	return run(Clean(), crowdConfig(devices, 1, seed), lay,
		func(f *Fleet) []Sink { return []Sink{bms.DirectUplink{Server: f.Pool.Servers[0]}} })
}

// CrowdFleetHTTP measures the networked ingest path end to end: the
// clean crowd's uplinks over loopback HTTP into a fleet.Handler
// gateway, the gateway over HTTPShard streams into per-shard bms
// servers, the whole crowd inside its socket I/O at once. Unlike
// CrowdFleet (which isolates per-shard compute) it times the whole
// stack: encode, HTTP exchange, gateway split or pre-split forward,
// shard ingest. The JSON/binary pair prices the device leg's protocol;
// the internal leg carries wire frames either way, and the Result's
// fleet_presplit_* counters say what the gateway forwarded unopened.
func CrowdFleetHTTP(devices, shards int, seed uint64, codec transport.Codec) (*Result, error) {
	res, err := run(Clean(), crowdConfig(devices, shards, seed),
		func(s *Spec) { s.Loopback, s.Metrics = true, obs.New() },
		func(f *Fleet) []Sink { return []Sink{DeviceUplink(f.URL, codec)} })
	if err == nil && codec == transport.CodecBinary && res.Counters["fleet_presplit_forwarded_total"] == 0 {
		return nil, fmt.Errorf("scenario: binary run never forwarded a pre-split batch")
	}
	return res, err
}

// CrowdFleetStorm measures the overload axis: the Storm traffic — every
// batch retransmitted repeat-fold by a NAT box that never believes the
// first answer — at its own price point. A fraction of a millisecond
// per shard call stands in for a deployed shard's network hop and disk
// touch; with shed the gateway admits 2 concurrent ingests (+2 queued)
// and refuses the excess with Retry-After hints, without it every
// duplicate queues on the shard locks. Goodput is Unique over Elapsed:
// duplicates the sequence numbers erase are load, not work.
func CrowdFleetStorm(devices, shards int, seed uint64, repeat int, shed bool) (*Result, error) {
	cfg := crowdConfig(devices, shards, seed)
	cfg.Repeat = repeat
	res, err := run(Storm(), cfg, func(s *Spec) {
		s.Wrap = Slow(200 * time.Microsecond)
		s.Fleet.Admission = overload.Config{}
		if shed {
			s.Fleet.Admission = overload.Config{MaxInflight: 2, MaxQueue: 2, RetryAfter: time.Millisecond}
		}
	}, (*Fleet).Sinks)
	if err == nil && shed && res.Shed == 0 {
		return nil, fmt.Errorf("scenario: storm shed nothing — the admission gate never engaged")
	}
	return res, err
}

// CrowdFleetResult measures the fleet scaling axis: the CrowdIngest
// workload through a consistent-hash gateway over N shards.
//
// Shards of a real fleet run on separate machines, so fleet wall time
// is the slowest shard's ingest time, not the sum. The in-process
// harness reproduces that attribution exactly by driving each shard's
// devices as its own timed phase (devices within a shard stay
// concurrent): PerShard[i] is real measured work, FleetElapsed is the
// max of their Elapsed (the distributed critical path), and
// TotalElapsed the sum (what one box pays for everything). Reports over
// FleetElapsed is the number that must scale with shards; it is exact
// on any GOMAXPROCS because phases never overlap.
type CrowdFleetResult struct {
	Reports                    int
	PerShard                   []*Driven
	FleetElapsed, TotalElapsed time.Duration
	Outcome
}

// CrowdFleet drives the clean crowd through the ring shard phase by
// shard phase. Routing never changes a device's stream, only where it
// lands, so the outcome is independent of the shard count.
func CrowdFleet(devices, shards int, seed uint64) (*CrowdFleetResult, error) {
	c, err := newCrowd(Clean(), crowdConfig(devices, shards, seed).withDefaults(), nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	phases := make([][]Lane, len(c.Pool.Shards))
	for d, lane := range c.tr.Lanes {
		var s int
		if s, err = c.Gateways[0].ShardFor(c.tr.Honest[d][0].Device); err != nil {
			break
		}
		phases[s] = append(phases[s], lane)
	}
	res := &CrowdFleetResult{}
	for s := 0; s < len(phases) && err == nil; s++ {
		// Settle the previous phase's GC debt before the clock starts:
		// one shard's critical path must not be billed a collection
		// another shard's allocations triggered.
		runtime.GC()
		var run *Driven
		run, err = Driver{}.Drive(phases[s], c.Sinks()...)
		res.PerShard = append(res.PerShard, run)
		res.Reports += run.Acked
		res.TotalElapsed += run.Elapsed
		res.FleetElapsed = max(res.FleetElapsed, run.Elapsed)
	}
	if err == nil {
		res.Outcome, err = c.outcome(Exact)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

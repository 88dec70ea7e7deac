package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/fleet/fleettest"
	"occusim/internal/overload"
	"occusim/internal/stats"
	"occusim/internal/transport"
)

// CrowdFleetStormResult measures the overload axis: the crowd workload
// with every batch retransmitted Repeat-fold (a NAT box that never
// believes the first answer) against shards that cost real time per
// call. With shedding on, the gateway's admission gate bounds the
// concurrency and refuses the excess with Retry-After hints; with it
// off, every duplicate queues on the shard locks. Goodput counts
// unique reports only — duplicates the sequence numbers erase are
// load, not work.
type CrowdFleetStormResult struct {
	Devices, Shards int
	Reports         int // unique reports offered
	Duplicates      int // extra deliveries from the storm
	Repeat          int
	ShedEnabled     bool
	Admitted, Shed  uint64
	Elapsed         time.Duration
	Goodput         float64 // unique reports / elapsed
	P50ms, P99ms    float64 // per-exchange latency (retries are exchanges)
	DevicesTracked  int
}

// Render prints the headline numbers.
func (r *CrowdFleetStormResult) Render() string {
	var b strings.Builder
	mode := "shed off"
	if r.ShedEnabled {
		mode = "shed on"
	}
	fmt.Fprintf(&b, "CrowdFleetStorm (%s): %d devices over %d shards, %d reports ×%d\n",
		mode, r.Devices, r.Shards, r.Reports, r.Repeat)
	fmt.Fprintf(&b, "goodput %.0f reports/s in %v, shed %d of %d admissions, latency p50 %.2fms p99 %.2fms\n",
		r.Goodput, r.Elapsed.Round(time.Millisecond), r.Shed, r.Admitted+r.Shed, r.P50ms, r.P99ms)
	fmt.Fprintf(&b, "tracked %d devices after dedup\n", r.DevicesTracked)
	return b.String()
}

// stormShardDelay prices each shard call: local shards answer in
// microseconds, which would let any storm through un-felt; a fraction
// of a millisecond per batch stands in for the network hop and disk
// touch a deployed shard pays.
const stormShardDelay = 200 * time.Microsecond

// CrowdFleetStorm drives the retransmit storm. devices defaults to 32,
// shards to 4, repeat to 3. With shed, the gateway admits at most 2
// concurrent ingests (+2 queued) and the devices honour the 429s'
// Retry-After hints; without, admission is unbounded.
func CrowdFleetStorm(devices, shards int, seed uint64, repeat int, shed bool) (*CrowdFleetStormResult, error) {
	if devices <= 0 {
		devices = 32
	}
	if shards <= 0 {
		shards = 4
	}
	if repeat <= 0 {
		repeat = 3
	}
	b := building.PaperHouse()
	pool, err := fleet.NewLocalPool(b, shards, 2, 1000)
	if err != nil {
		return nil, err
	}
	ring := make([]fleet.Shard, len(pool.Shards))
	delayed := make([]*fleettest.SlowShard, len(pool.Shards))
	for i, s := range pool.Shards {
		delayed[i] = &fleettest.SlowShard{Shard: s, Delay: stormShardDelay}
		ring[i] = delayed[i]
	}
	var cfg fleet.Config
	if shed {
		cfg.Admission = overload.Config{MaxInflight: 2, MaxQueue: 2, RetryAfter: time.Millisecond}
	}
	gw, err := fleet.New(ring, cfg)
	if err != nil {
		return nil, err
	}
	if err := TrainAndDistribute(gw, b, seed); err != nil {
		return nil, err
	}

	reportsPer := int(crowdWindow / crowdReportPeriod)
	streams, _, _ := SynthCrowdStreams(b, devices, reportsPer, seed)
	seq := transport.NewSequencer(1)
	type batch struct{ reports []transport.Report }
	lanes := make([][]batch, devices)
	for d, s := range streams {
		for len(s) > 0 {
			n := 16
			if n > len(s) {
				n = len(s)
			}
			chunk := s[:n]
			for i := range chunk {
				seq.Stamp(&chunk[i])
			}
			lanes[d] = append(lanes[d], batch{reports: chunk})
			s = s[n:]
		}
	}

	res := &CrowdFleetStormResult{
		Devices:     devices,
		Shards:      shards,
		Reports:     devices * reportsPer,
		Duplicates:  (repeat - 1) * devices * reportsPer,
		Repeat:      repeat,
		ShedEnabled: shed,
	}
	var mu sync.Mutex
	var latencies []float64
	observe := func(d time.Duration) {
		mu.Lock()
		latencies = append(latencies, float64(d)/float64(time.Millisecond))
		mu.Unlock()
	}

	start := time.Now()
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, bt := range lanes[d] {
				for k := 0; k < repeat; k++ {
					for attempt := 0; ; attempt++ {
						t0 := time.Now()
						_, err := gw.IngestBatch(bt.reports)
						observe(time.Since(t0))
						if err == nil {
							break
						}
						after, ok := overload.IsOverload(err)
						if !ok || attempt > 10000 {
							errs[d] = err
							return
						}
						time.Sleep(after)
					}
				}
			}
		}(d)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if res.Elapsed > 0 {
		res.Goodput = float64(res.Reports) / res.Elapsed.Seconds()
	}
	res.Admitted, res.Shed = gw.AdmissionStats()
	sort.Float64s(latencies)
	if len(latencies) > 0 {
		res.P50ms = stats.Percentile(latencies, 50)
		res.P99ms = stats.Percentile(latencies, 99)
	}
	snap, err := gw.Occupancy()
	if err != nil {
		return nil, err
	}
	res.DevicesTracked = len(snap.Devices)
	if !slices.ContainsFunc(delayed, func(s *fleettest.SlowShard) bool { return s.Slept() > 0 }) {
		return nil, fmt.Errorf("experiments: storm priced no shard call — no delivery went through the delayed shards")
	}
	if shed && res.Shed == 0 {
		return nil, fmt.Errorf("experiments: storm shed nothing — the admission gate never engaged")
	}
	return res, nil
}

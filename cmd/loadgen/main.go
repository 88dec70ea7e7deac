// Command loadgen is the crowd-scale load generator: it replays trace
// recordings or synthesises mobility-driven report streams for a
// configurable device count and rate, drives them through coalescing
// uplinks against a gateway, and reports ingest throughput and exchange
// latency percentiles.
//
// Two targets are supported:
//
//	go run ./cmd/loadgen -shards 4 -devices 64 -reports 150
//	    self-contained: an in-process fleet.Gateway over N BMS shards
//	    (trained and model-distributed before the measured run)
//
//	go run ./cmd/loadgen -target http://127.0.0.1:8080 -devices 32
//	    an HTTP endpoint serving the BMS observation API — a single
//	    bmsd, or a bmsd -shards N fleet gateway; transient failures are
//	    retried with capped exponential backoff
//
// With -trace, the recording's scan cycles are replayed through the
// paper's history filter and the resulting ranging reports are cloned
// across the simulated devices (device names remapped), so real
// captured mobility drives the load instead of the synthetic crowd.
//
// With -flaky p (in-process fleets only), a fraction p of shard batch
// calls fail — half of them after the shard already committed, the
// lost-response case — and the devices' uplinks retransmit until
// acknowledged. Every report carries a per-device sequence number, so
// the shards deduplicate the retransmissions; after the run loadgen
// asserts the federated occupancy, events, dwell and rollup are byte-identical
// to a clean single server fed the same streams exactly once (the
// synthetic ground truth) and exits nonzero otherwise.
//
// With -kill "t1,t2,..." (and -bmsd pointing at a built binary), the
// shards are real bmsd subprocesses with write-ahead logs: at each
// listed trace time a shard is SIGKILLed mid-run and restarted over
// its data directory, -restart-gateway additionally rebuilds the
// gateway from the shards' recovered device sets, and the run ends
// with the same byte-identical ground-truth assertion — the crashtest
// that proves kill -9 loses nothing (see make crashtest).
//
// Every run ends with a telemetry dashboard scraped from the fleet's
// own /api/v1/telemetry faces (or read straight from the in-process
// registry): per-phase goodput and shed rate, cumulative p99 by
// pipeline stage, lease transitions, and the flight recorder's tail.
// Live targets additionally have their /metrics exposition validated —
// one malformed line fails the run. -bmsd WITHOUT a kill schedule runs
// that check against real subprocess shards with no faults injected
// (the CI loadtest mode), and -kill-gateway runs assert from shard
// telemetry that every kill produced exactly one successful lease
// claim and that no stale-epoch write was ever admitted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/filter"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/trace"
	"occusim/internal/transport"
)

// options is the flag set.
type options struct {
	target, plan, tracePath, kill, killGateway, bmsdPath, dataRoot, fsync, scenario string

	shards, devices, reports, batch, storm int
	rate, flush, flaky                     float64
	seed, epoch                            uint64
	restartGateway                         bool
	codec                                  transport.Codec
}

func main() {
	var o options
	flag.StringVar(&o.target, "target", "", "HTTP endpoint (empty: in-process fleet)")
	flag.IntVar(&o.shards, "shards", 2, "in-process fleet shard count (with empty -target)")
	flag.StringVar(&o.plan, "plan", "paper-house", "floor plan for stream synthesis and the in-process fleet")
	flag.IntVar(&o.devices, "devices", 32, "simulated handset count")
	flag.IntVar(&o.reports, "reports", 150, "reports per device (synthetic streams)")
	flag.Float64Var(&o.rate, "rate", 0, "total reports/s pacing across the crowd (0: unpaced)")
	flag.IntVar(&o.batch, "batch", 64, "max reports per coalesced batch")
	flag.Float64Var(&o.flush, "flush", 20, "batch flush window in report-time seconds")
	flag.StringVar(&o.tracePath, "trace", "", "trace JSON to replay as every device's stream")
	flag.Uint64Var(&o.seed, "seed", 11, "stream synthesis seed")
	flag.Float64Var(&o.flaky, "flaky", 0, "fraction of in-process shard batch calls to fail (half after commit); uplinks retry and the final state is asserted against ground truth")
	flag.Uint64Var(&o.epoch, "epoch", 1, "device epoch stamped on sequenced reports")
	flag.StringVar(&o.kill, "kill", "", "crash schedule \"t1,t2,...\" (trace seconds): SIGKILL a shard subprocess at each time, restart it, and assert the final state against ground truth")
	flag.StringVar(&o.killGateway, "kill-gateway", "", "gateway-failover schedule \"t1,t2,...\" (trace seconds): SIGKILL the ACTIVE HA-gateway subprocess at each time, let the standby claim the lease and take over, and assert the final state against ground truth")
	flag.StringVar(&o.bmsdPath, "bmsd", "", "path to a built bmsd binary (required with -kill/-kill-gateway; alone: live subprocess shards, no faults — the CI loadtest mode)")
	flag.StringVar(&o.dataRoot, "data-root", "", "root directory for the crash shards' WALs (with -kill; empty: a temp dir)")
	flag.StringVar(&o.fsync, "fsync", "batch", "WAL sync policy for the crash shards: batch, interval, off")
	flag.BoolVar(&o.restartGateway, "restart-gateway", false, "with -kill: also discard and rebuild the gateway at each crash, proving a gateway restart is invisible")
	flag.StringVar(&o.scenario, "scenario", "", "run a named adversarial scenario from internal/scenario against its ground-truth oracle (see -scenario list)")
	flag.IntVar(&o.storm, "storm", 0, "shorthand for -scenario storm with each batch retransmitted k times")
	wireFlag := flag.String("wire", "json", "batch encoding of the device leg, on every HTTP sink (-target, -kill-gateway): json, or binary (wire frames: pre-split per shard where the target publishes a ring with a digest, one plain frame where it does not, JSON for good once a target answers 415); the gateway → shard leg carries wire frames either way")
	flag.Parse()
	var err error
	if o.codec, err = transport.ParseCodec(*wireFlag); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	if o.scenario != "" || o.storm > 0 {
		err = runScenario(o)
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.devices < 1 {
		return fmt.Errorf("need at least 1 device")
	}
	b, err := building.ByName(o.plan)
	if err != nil {
		return err
	}

	var streams [][]transport.Report
	if o.tracePath != "" {
		streams, err = traceStreams(o.tracePath, o.devices)
	} else {
		streams, _, _ = experiments.SynthCrowdStreams(b, o.devices, o.reports, o.seed)
	}
	if err != nil {
		return err
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	if total == 0 {
		return fmt.Errorf("no reports to send")
	}

	if o.flaky < 0 || o.flaky >= 1 {
		return fmt.Errorf("-flaky %v outside [0, 1)", o.flaky)
	}
	if o.flaky > 0 && o.target != "" {
		return fmt.Errorf("-flaky injects faults into in-process shards; it cannot be combined with -target")
	}
	killSchedule, err := parseKillSchedule(o.kill)
	if err != nil {
		return err
	}
	if len(killSchedule) > 0 {
		if o.target != "" {
			return fmt.Errorf("-kill spawns its own shard subprocesses; it cannot be combined with -target")
		}
		if o.flaky > 0 {
			return fmt.Errorf("-kill and -flaky are separate drills; run them one at a time")
		}
	}
	gwSchedule, err := parseKillSchedule(o.killGateway)
	if err != nil {
		return err
	}
	if len(gwSchedule) > 0 {
		if o.target != "" {
			return fmt.Errorf("-kill-gateway spawns its own gateway subprocesses; it cannot be combined with -target")
		}
		if o.flaky > 0 || len(killSchedule) > 0 {
			return fmt.Errorf("-kill-gateway, -kill and -flaky are separate drills; run them one at a time")
		}
		if o.restartGateway {
			return fmt.Errorf("-restart-gateway applies to -kill; -kill-gateway always restarts the killed gateway as a standby")
		}
		if o.bmsdPath == "" {
			return fmt.Errorf("-kill-gateway needs -bmsd pointing at a built bmsd binary (make crashtest builds one)")
		}
	}

	// Resolve the target: a remote HTTP gateway, subprocess crash
	// shards, or an in-process fleet.
	var sink scenario.Sink
	var local *scenario.Fleet
	var crashPool *crashFleet // the subprocess shards of every -bmsd mode
	var drill *gatewayDrill
	var failover *transport.HTTPUplink
	if len(gwSchedule) > 0 {
		drill, err = startGatewayDrill(b, o)
		if err != nil {
			return err
		}
		defer drill.stop()
		crashPool = drill.fleet
		failover = &transport.HTTPUplink{BaseURL: drill.gws[0].self, Peers: []string{drill.gws[1].self},
			Retry: transport.DefaultRetry(), Codec: o.codec}
		sink = clockUplink{c: crashPool, next: func() scenario.Sink { return failover }}
		fmt.Printf("loadgen: %d devices, %d reports → active/standby HA gateway pair over %d bmsd shard(s), SIGKILL the active at trace t=%v (fsync=%s, wire=%s)\n",
			o.devices, total, o.shards, gwSchedule, o.fsync, o.codec)
	} else if len(killSchedule) > 0 || (o.target == "" && o.bmsdPath != "") {
		// -bmsd with no kill schedule: live subprocess shards and no
		// faults — the CI loadtest face. The run drives the real binary
		// end to end, scrapes its telemetry for the dashboard, and
		// fails if any shard's /metrics exposition is malformed.
		crashPool, err = startCrashFleet(b, o)
		if err != nil {
			return err
		}
		defer crashPool.stop()
		sink = crashPool.uplink()
		if len(killSchedule) > 0 {
			fmt.Printf("loadgen: %d devices, %d reports → %d bmsd subprocess shard(s), SIGKILL at trace t=%v (fsync=%s)\n",
				o.devices, total, o.shards, killSchedule, o.fsync)
		} else {
			fmt.Printf("loadgen: %d devices, %d reports → %d live bmsd subprocess shard(s), no faults (fsync=%s)\n",
				o.devices, total, o.shards, o.fsync)
		}
	} else if o.target != "" {
		sink = scenario.DeviceUplink(o.target, o.codec)
		fmt.Printf("loadgen: %d devices, %d reports → %s (wire=%s)\n", o.devices, total, o.target, o.codec)
	} else {
		// One shared registry for the gateway and every shard: identical
		// series share handles, so the dashboard reads pool-wide aggregates.
		spec := scenario.Spec{Shards: o.shards, Metrics: obs.New()}
		if o.flaky > 0 {
			spec.Wrap = scenario.Flaky(max(2, int(math.Round(1/o.flaky))))
		}
		if local, err = scenario.Build(b, spec, o.seed); err != nil {
			return err
		}
		sink = local.Sinks()[0]
		if o.flaky > 0 {
			fmt.Printf("loadgen: %d devices, %d reports → in-process %d-shard fleet (flaky %.0f%% of batch calls)\n",
				o.devices, total, o.shards, 100*o.flaky)
		} else {
			fmt.Printf("loadgen: %d devices, %d reports → in-process %d-shard fleet\n", o.devices, total, o.shards)
		}
	}
	// Telemetry plumbing: instrument the client-side transport, pick the
	// scrape targets for the dashboard and the exposition check, and set
	// up the per-phase dashboard (marked again after every kill).
	clientMet := obs.New()
	transport.Instrument(clientMet)
	if drill != nil {
		drill.client = clientMet
	}
	scrapeTargets := map[string]string{}
	sources := []snapshotSource{registrySource(clientMet)}
	switch {
	case crashPool != nil:
		sources = append(sources, registrySource(crashPool.met))
		for _, p := range crashPool.procs {
			scrapeTargets[p.name] = "http://" + p.addr
			sources = append(sources, httpSource("http://"+p.addr))
		}
		// The gateway pair is format-validated but not merged into the
		// dashboard: a killed gateway restarts with a fresh registry,
		// which would make cross-phase deltas jump.
		if drill != nil {
			for _, g := range drill.gws {
				scrapeTargets[g.name] = g.self
			}
		}
	case o.target != "":
		scrapeTargets["target"] = o.target
		sources = append(sources, httpSource(o.target))
	default:
		sources = append(sources, registrySource(local.Spec.Metrics))
	}
	dash := newDashboard(multiSource(sources...))
	if crashPool != nil {
		crashPool.onKill = dash.mark
	}

	// The crowd: each device hands its own coalescing uplink one report
	// at a time; pacing (when requested) spreads them over wall time.
	drive := scenario.Driver{
		Epoch:    o.epoch,
		Coalesce: &transport.BatchConfig{FlushSeconds: o.flush, MaxBatch: o.batch},
	}
	if o.rate > 0 {
		drive.Gap = time.Duration(float64(o.devices) / o.rate * float64(time.Second))
	}
	if o.flaky > 0 {
		drive.Faults = scenario.Budget{Attempts: 10}
	}
	schedule, flagName := killSchedule, "-kill"
	if drill != nil {
		schedule, flagName = gwSchedule, "-kill-gateway"
	}
	var killer chan error // the schedule's outcome, once it has run
	if len(schedule) > 0 {
		// A killed shard or gateway is down for its whole restart
		// (recovery/takeover + rebind), so retransmission needs a real
		// gap and a deep budget.
		drive.Faults = scenario.Budget{Attempts: 300, Gap: 100 * time.Millisecond}
		maxTrace := 0.0
		for _, s := range streams {
			maxTrace = max(maxTrace, newest(s))
		}
		if last := schedule[len(schedule)-1]; last > maxTrace {
			return fmt.Errorf("%s time %v is beyond the streams' trace span (%.0fs) and would never fire; raise -reports", flagName, last, maxTrace)
		}
		stopKiller := make(chan struct{})
		defer close(stopKiller)
		fire := crashPool.killShard(o.restartGateway, stopKiller)
		if drill != nil {
			fire = drill.killActive
		}
		killer = make(chan error, 1)
		go func() { killer <- crashPool.runKiller(schedule, fire, stopKiller) }()
	}

	dash.mark("start")
	ran, err := drive.Drive(scenario.Lanes(streams, 1), sink)
	if err != nil {
		return err
	}
	printReport(total, ran)
	if crashPool != nil {
		if killer != nil {
			// The last kill's restart or takeover can outlive the final
			// batch (it lands through a survivor); wait for the schedule to
			// finish before reading the shards.
			select {
			case err := <-killer:
				if err != nil {
					return err
				}
			case <-time.After(120 * time.Second):
				return fmt.Errorf("%s schedule never completed — a restart or takeover stalled", flagName)
			}
			if got := crashPool.kills.Load(); got != int64(len(schedule)) {
				return fmt.Errorf("%s fired %d of %d scheduled kills — the drill was vacuous", flagName, got, len(schedule))
			}
		}
		dash.mark("end of run")
		dash.print()
		if err := validateLiveMetrics(scrapeTargets); err != nil {
			return err
		}
		if drill != nil {
			return drill.verify(failover, streams)
		}
		if err := crashPool.assertStreamTelemetry(); err != nil {
			return err
		}
		if err := crashPool.assertWALTelemetry(); err != nil {
			return err
		}
		cgw := crashPool.gw.Load()
		printRollup(cgw)
		if err := crashPool.clients.Verify(cgw, scenario.Exact, streams); err != nil {
			return err
		}
		if err := crashPool.drain(); err != nil {
			return err
		}
		if len(killSchedule) > 0 {
			fmt.Printf("crash-recovery verified: %d kill -9 restart(s), recovered fleet state is byte-identical to the clean ground truth\n",
				crashPool.kills.Load())
		} else {
			fmt.Println("live-shard run verified: state byte-identical to the clean ground truth, /metrics valid on every shard")
		}
		return nil
	}
	if local != nil {
		// Before the final mark: the rollup's federated read is then a
		// row of the dashboard's stage table.
		printRollup(local.Gateways[0])
	}
	dash.mark("end of run")
	dash.print()
	if local == nil {
		if err := validateLiveMetrics(scrapeTargets); err != nil {
			return err
		}
		printRemoteOccupancy(o.target)
		return nil
	}
	if err := validateRegistry(local.Spec.Metrics); err != nil {
		return err
	}
	if o.flaky > 0 {
		if err := local.Verify(local.Gateways[0], scenario.Exact, streams); err != nil {
			return err
		}
		fmt.Printf("exactly-once verified: %d injected failures, flaky-run state is byte-identical to the clean ground truth\n", local.Injected())
	}
	return nil
}

// runScenario drives one adversarial scenario from internal/scenario
// through an in-process fleet and its ground-truth oracle, and — for
// the scenarios whose whole point is a hostile mechanism firing —
// exits nonzero if the run was vacuous.
func runScenario(o options) error {
	name := o.scenario
	if name == "" {
		name = "storm"
	}
	if name == "list" {
		for _, sc := range scenario.All() {
			fmt.Printf("%-8s %s (oracle: %s)\n", sc.Name, sc.Description, sc.Oracle)
		}
		return nil
	}
	sc, err := scenario.ByName(name)
	if err != nil {
		return err
	}
	if o.storm > 0 && name != "storm" {
		return fmt.Errorf("-storm only applies to the storm scenario, not %q", name)
	}
	res, err := scenario.Run(sc, scenario.Config{
		Devices: o.devices,
		Reports: o.reports,
		Shards:  o.shards,
		Seed:    o.seed,
		Epoch:   o.epoch,
		Repeat:  o.storm,
	})
	if err != nil {
		return err
	}
	switch name {
	case "storm":
		if res.Shed == 0 {
			return fmt.Errorf("storm run shed nothing — the drill was vacuous; raise -storm or -devices")
		}
	case "skew":
		if res.SkewAdjusted == 0 {
			return fmt.Errorf("skew run re-anchored nothing — the drill was vacuous")
		}
	}
	fmt.Println(res)
	return nil
}

// traceStreams replays a recorded session through the paper's history
// filter and clones the resulting ranging reports across the devices.
func traceStreams(path string, devices int) ([][]transport.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadJSON(f)
	if err != nil {
		return nil, err
	}
	hist, err := filter.NewHistory(filter.PaperConfig())
	if err != nil {
		return nil, err
	}
	estimates := tr.Replay(hist)
	base := make([]transport.Report, 0, len(tr.Cycles))
	for i, c := range tr.Cycles {
		rep := transport.Report{AtSeconds: c.End.Seconds()}
		for _, e := range estimates[i] {
			rep.Beacons = append(rep.Beacons, transport.BeaconReport{
				ID:       e.Beacon.String(),
				Distance: e.Distance,
				RSSI:     -60 - 2*e.Distance,
			})
		}
		if len(rep.Beacons) > 0 {
			base = append(base, rep)
		}
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("trace %s yields no ranging reports", path)
	}
	streams := make([][]transport.Report, devices)
	for d := range streams {
		streams[d] = make([]transport.Report, len(base))
		copy(streams[d], base)
		for i := range streams[d] {
			streams[d][i].Device = fmt.Sprintf("replay-%03d", d)
		}
	}
	return streams, nil
}

// printReport prints what the driver measured. The mean batch is over
// the exchanges that were acknowledged, as the reports it divides are.
func printReport(total int, ran *scenario.Driven) {
	fmt.Printf("sent %d reports in %v → %.0f reports/s (%d exchanges, mean batch %.1f)\n",
		ran.Acked, ran.Elapsed.Round(time.Millisecond), float64(ran.Acked)/ran.Elapsed.Seconds(),
		ran.Exchanges, float64(ran.Acked)/float64(ran.AckedExchanges))
	if total != ran.Acked {
		fmt.Printf("WARNING: %d of %d reports unaccounted for\n", total-ran.Acked, total)
	}
	fmt.Printf("exchange latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		ran.LatencyMs(50), ran.LatencyMs(90), ran.LatencyMs(99), ran.LatencyMs(100))
}

// roomCounts renders per-room head counts in room order.
func roomCounts(rooms map[string]int) string {
	names := make([]string, 0, len(rooms))
	for room := range rooms {
		names = append(names, room)
	}
	sort.Strings(names)
	for i, room := range names {
		names[i] = fmt.Sprintf("%s:%d", room, rooms[room])
	}
	return strings.Join(names, " ")
}

// printRollup renders the in-process fleet's federated occupancy view —
// the payoff the load was generating for.
func printRollup(gw *fleet.Gateway) {
	rollup, err := gw.Rollup()
	if err != nil {
		fmt.Println("rollup unavailable:", err)
		return
	}
	occupants := map[string]int{}
	for room, r := range rollup.Rooms {
		occupants[room] = r.Occupants
	}
	fmt.Printf("federated rollup: %d devices, %d events | %s\n", rollup.Devices, rollup.Events, roomCounts(occupants))
	for _, s := range gw.Statuses() {
		fmt.Printf("  %s: %d reports routed\n", s.Name, s.Routed)
	}
}

// printRemoteOccupancy best-effort queries the target's occupancy view.
func printRemoteOccupancy(target string) {
	payload, err := transport.GetJSON(&http.Client{Timeout: 5 * time.Second},
		target+"/api/v1/occupancy", transport.RetryPolicy{})
	if err != nil {
		return
	}
	var snap struct {
		Rooms map[string]int `json:"rooms"`
	}
	if json.Unmarshal(payload, &snap) != nil {
		return
	}
	fmt.Printf("remote occupancy: %s\n", roomCounts(snap.Rooms))
}

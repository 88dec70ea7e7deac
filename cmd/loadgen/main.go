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
	"sync"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/filter"
	"occusim/internal/fleet"
	"occusim/internal/fleet/fleettest"
	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/stats"
	"occusim/internal/trace"
	"occusim/internal/transport"
)

func main() {
	target := flag.String("target", "", "HTTP endpoint (empty: in-process fleet)")
	shards := flag.Int("shards", 2, "in-process fleet shard count (with empty -target)")
	plan := flag.String("plan", "paper-house", "floor plan for stream synthesis and the in-process fleet")
	devices := flag.Int("devices", 32, "simulated handset count")
	reports := flag.Int("reports", 150, "reports per device (synthetic streams)")
	rate := flag.Float64("rate", 0, "total reports/s pacing across the crowd (0: unpaced)")
	batch := flag.Int("batch", 64, "max reports per coalesced batch")
	flush := flag.Float64("flush", 20, "batch flush window in report-time seconds")
	tracePath := flag.String("trace", "", "trace JSON to replay as every device's stream")
	seed := flag.Uint64("seed", 11, "stream synthesis seed")
	flaky := flag.Float64("flaky", 0, "fraction of in-process shard batch calls to fail (half after commit); uplinks retry and the final state is asserted against ground truth")
	epoch := flag.Uint64("epoch", 1, "device epoch stamped on sequenced reports")
	kill := flag.String("kill", "", "crash schedule \"t1,t2,...\" (trace seconds): SIGKILL a shard subprocess at each time, restart it, and assert the final state against ground truth")
	killGateway := flag.String("kill-gateway", "", "gateway-failover schedule \"t1,t2,...\" (trace seconds): SIGKILL the ACTIVE HA-gateway subprocess at each time, let the standby claim the lease and take over, and assert the final state against ground truth")
	bmsdPath := flag.String("bmsd", "", "path to a built bmsd binary (required with -kill/-kill-gateway; alone: live subprocess shards, no faults — the CI loadtest mode)")
	dataRoot := flag.String("data-root", "", "root directory for the crash shards' WALs (with -kill; empty: a temp dir)")
	fsync := flag.String("fsync", "batch", "WAL sync policy for the crash shards: batch, interval, off")
	restartGateway := flag.Bool("restart-gateway", false, "with -kill: also discard and rebuild the gateway at each crash, proving a gateway restart is invisible")
	scenarioName := flag.String("scenario", "", "run a named adversarial scenario from internal/scenario against its ground-truth oracle (see -scenario list)")
	storm := flag.Int("storm", 0, "shorthand for -scenario storm with each batch retransmitted k times")
	wireFlag := flag.String("wire", "json", "batch encoding of the device leg, for HTTP sinks: json, or binary (wire frames with device-side pre-split against the gateway ring; JSON-only servers downgrade us via 415); the gateway → shard leg carries wire frames either way")
	flag.Parse()
	codec, err := transport.ParseCodec(*wireFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}

	if *scenarioName != "" || *storm > 0 {
		if err := runScenario(*scenarioName, *storm, *shards, *devices, *reports, *seed, *epoch); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}

	crash := crashOpts{
		Schedule:        *kill,
		GatewaySchedule: *killGateway,
		BmsdPath:        *bmsdPath,
		DataRoot:        *dataRoot,
		Fsync:           *fsync,
		RestartGateway:  *restartGateway,
	}
	if err := run(*target, *shards, *plan, *devices, *reports, *rate, *batch, *flush, *tracePath, *seed, *flaky, *epoch, codec, crash); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// crashOpts carries the -kill and -kill-gateway schedule knobs (see
// crash.go and gatewaydrill.go).
type crashOpts struct {
	Schedule        string
	GatewaySchedule string
	BmsdPath        string
	DataRoot        string
	Fsync           string
	RestartGateway  bool
}

func run(target string, shards int, plan string, devices, reports int, rate float64, batch int, flush float64, tracePath string, seed uint64, flaky float64, epoch uint64, codec transport.Codec, crash crashOpts) error {
	if devices < 1 {
		return fmt.Errorf("need at least 1 device")
	}
	b, err := building.ByName(plan)
	if err != nil {
		return err
	}

	var streams [][]transport.Report
	if tracePath != "" {
		streams, err = traceStreams(tracePath, devices)
	} else {
		streams, _, _ = experiments.SynthCrowdStreams(b, devices, reports, seed)
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

	if flaky < 0 || flaky >= 1 {
		return fmt.Errorf("-flaky %v outside [0, 1)", flaky)
	}
	if flaky > 0 && target != "" {
		return fmt.Errorf("-flaky injects faults into in-process shards; it cannot be combined with -target")
	}
	killSchedule, err := parseKillSchedule(crash.Schedule)
	if err != nil {
		return err
	}
	if len(killSchedule) > 0 {
		if target != "" {
			return fmt.Errorf("-kill spawns its own shard subprocesses; it cannot be combined with -target")
		}
		if flaky > 0 {
			return fmt.Errorf("-kill and -flaky are separate drills; run them one at a time")
		}
	}
	gwSchedule, err := parseKillSchedule(crash.GatewaySchedule)
	if err != nil {
		return err
	}
	if len(gwSchedule) > 0 {
		if target != "" {
			return fmt.Errorf("-kill-gateway spawns its own gateway subprocesses; it cannot be combined with -target")
		}
		if flaky > 0 || len(killSchedule) > 0 {
			return fmt.Errorf("-kill-gateway, -kill and -flaky are separate drills; run them one at a time")
		}
		if crash.RestartGateway {
			return fmt.Errorf("-restart-gateway applies to -kill; -kill-gateway always restarts the killed gateway as a standby")
		}
		if crash.BmsdPath == "" {
			return fmt.Errorf("-kill-gateway needs -bmsd pointing at a built bmsd binary (make crashtest builds one)")
		}
	}

	// Resolve the target: a remote HTTP gateway, subprocess crash
	// shards, or an in-process fleet.
	var sink transport.Uplink
	var gw *fleet.Gateway
	var flakies []*fleettest.FlakyShard
	var crashPool *crashFleet
	var drill *gatewayDrill
	var failover *transport.FailoverUplink
	if len(gwSchedule) > 0 {
		drill, err = startGatewayDrill(b, plan, shards, crash.BmsdPath, crash.DataRoot, crash.Fsync, seed)
		if err != nil {
			return err
		}
		defer drill.stop()
		failover, err = transport.NewFailoverUplink(
			[]string{drill.gws[0].self, drill.gws[1].self}, nil, transport.DefaultRetry())
		if err != nil {
			return err
		}
		failover.Codec = codec
		sink = drillUplink{d: drill, next: failover}
		fmt.Printf("loadgen: %d devices, %d reports → active/standby HA gateway pair over %d bmsd shard(s), SIGKILL the active at trace t=%v (fsync=%s, wire=%s)\n",
			devices, total, shards, gwSchedule, crash.Fsync, codec)
	} else if len(killSchedule) > 0 {
		crashPool, err = startCrashFleet(b, plan, shards, crash.BmsdPath, crash.DataRoot, crash.Fsync, seed)
		if err != nil {
			return err
		}
		defer crashPool.stop()
		sink = crashUplink{c: crashPool}
		fmt.Printf("loadgen: %d devices, %d reports → %d bmsd subprocess shard(s), SIGKILL at trace t=%v (fsync=%s)\n",
			devices, total, shards, killSchedule, crash.Fsync)
	} else if target != "" {
		if codec == transport.CodecBinary {
			// Binary mode pre-splits against the target's published ring
			// when it has one (a fleet gateway); a single bms box gets
			// plain frames, and a JSON-only server downgrades us via 415.
			sink = &transport.ShardSplitter{BaseURL: target, Retry: transport.DefaultRetry()}
		} else {
			sink = &transport.HTTPUplink{BaseURL: target, Retry: transport.DefaultRetry(), Codec: codec}
		}
		fmt.Printf("loadgen: %d devices, %d reports → %s (wire=%s)\n", devices, total, target, codec)
	} else if crash.BmsdPath != "" {
		// -bmsd with no kill schedule: live subprocess shards and no
		// faults — the CI loadtest face. The run drives the real binary
		// end to end, scrapes its telemetry for the dashboard, and
		// fails if any shard's /metrics exposition is malformed.
		crashPool, err = startCrashFleet(b, plan, shards, crash.BmsdPath, crash.DataRoot, crash.Fsync, seed)
		if err != nil {
			return err
		}
		defer crashPool.stop()
		sink = crashUplink{c: crashPool}
		fmt.Printf("loadgen: %d devices, %d reports → %d live bmsd subprocess shard(s), no faults (fsync=%s)\n",
			devices, total, shards, crash.Fsync)
	} else {
		gw, flakies, err = inProcessFleet(b, shards, seed, flaky)
		if err != nil {
			return err
		}
		sink = fleet.GatewayUplink{Gateway: gw}
		if flaky > 0 {
			fmt.Printf("loadgen: %d devices, %d reports → in-process %d-shard fleet (flaky %.0f%% of batch calls)\n",
				devices, total, shards, 100*flaky)
		} else {
			fmt.Printf("loadgen: %d devices, %d reports → in-process %d-shard fleet\n", devices, total, shards)
		}
	}
	// Telemetry plumbing: instrument the client-side transport, pick the
	// scrape targets for the dashboard and the exposition check, and set
	// up the per-phase dashboard (marked again after every kill).
	clientMet := obs.New()
	transport.Instrument(clientMet)
	scrapeTargets := map[string]string{}
	sources := []snapshotSource{registrySource(clientMet)}
	switch {
	case drill != nil:
		for _, p := range drill.fleet.procs {
			scrapeTargets[p.name] = "http://" + p.addr
			sources = append(sources, httpSource("http://"+p.addr))
		}
		// The gateway pair is format-validated but not merged into the
		// dashboard: a killed gateway restarts with a fresh registry,
		// which would make cross-phase deltas jump.
		for _, g := range drill.gws {
			scrapeTargets[g.name] = g.self
		}
	case crashPool != nil:
		sources = append(sources, registrySource(crashPool.met))
		for _, p := range crashPool.procs {
			scrapeTargets[p.name] = "http://" + p.addr
			sources = append(sources, httpSource("http://"+p.addr))
		}
	case target != "":
		scrapeTargets["target"] = target
		sources = append(sources, httpSource(target))
	case gw != nil:
		sources = append(sources, registrySource(gw.Metrics()))
	}
	dash := newDashboard(multiSource(sources...))
	if crashPool != nil {
		crashPool.onKill = dash.mark
	}
	if drill != nil {
		drill.onKill = dash.mark
	}

	rec := &latencyRecorder{next: sink}
	var funnel transport.Uplink = rec
	if flaky > 0 {
		// Whole-batch retransmission against the flaky shards; every
		// attempt is measured as its own exchange.
		funnel = retryUplink{next: rec, max: 10}
	}
	var killerDone chan struct{}
	killerErrs := make(chan error, len(killSchedule)+len(gwSchedule)+1)
	if drill != nil || (crashPool != nil && len(killSchedule) > 0) {
		// A killed shard or gateway is down for its whole restart
		// (recovery/takeover + rebind), so retransmission needs a real
		// gap and a deep budget — every attempt is still measured as its
		// own exchange.
		funnel = retryUplink{next: rec, max: 300, gap: 100 * time.Millisecond}
		schedule := killSchedule
		flagName := "-kill"
		if drill != nil {
			schedule = gwSchedule
			flagName = "-kill-gateway"
		}
		maxTrace := 0.0
		for _, s := range streams {
			for i := range s {
				if s[i].AtSeconds > maxTrace {
					maxTrace = s[i].AtSeconds
				}
			}
		}
		if last := schedule[len(schedule)-1]; last > maxTrace {
			return fmt.Errorf("%s time %v is beyond the streams' trace span (%.0fs) and would never fire; raise -reports", flagName, last, maxTrace)
		}
		killerDone = make(chan struct{})
		stopKiller := make(chan struct{})
		defer close(stopKiller)
		go func() {
			if drill != nil {
				drill.runKiller(schedule, stopKiller, killerErrs)
			} else {
				crashPool.runKiller(schedule, crash.RestartGateway, stopKiller, killerErrs)
			}
			close(killerDone)
		}()
	}
	sequencer := transport.NewSequencer(epoch)

	// The measured run: each device streams through its own coalescing
	// uplink; pacing (when requested) spreads sends over wall time.
	var perDeviceGap time.Duration
	if rate > 0 {
		perDeviceGap = time.Duration(float64(devices) / rate * float64(time.Second))
	}
	dash.mark("start")
	start := time.Now()
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			uplink, err := transport.NewBatchingUplink(funnel, transport.BatchConfig{
				FlushSeconds: flush,
				MaxBatch:     batch,
				Sequencer:    sequencer,
			})
			if err != nil {
				errs[d] = err
				return
			}
			for _, rep := range streams[d] {
				if perDeviceGap > 0 {
					time.Sleep(perDeviceGap)
				}
				if err := uplink.Send(rep); err != nil {
					errs[d] = err
					return
				}
			}
			errs[d] = uplink.Flush()
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for d, err := range errs {
		if err != nil {
			return fmt.Errorf("device %d: %w", d, err)
		}
	}

	printReport(total, elapsed, rec)
	if drill != nil {
		// The last kill's takeover can outlive the final batch (it lands
		// through the survivor); wait for the schedule to finish before
		// reading the shards.
		select {
		case <-killerDone:
		case <-time.After(120 * time.Second):
			return fmt.Errorf("gateway-kill schedule never completed — a takeover stalled")
		}
		select {
		case err := <-killerErrs:
			return err
		default:
		}
		if got := drill.kills.Load(); got != int64(len(gwSchedule)) {
			return fmt.Errorf("gateway drill fired %d of %d scheduled kills — the drill was vacuous", got, len(gwSchedule))
		}
		redirects, rotations := failover.Stats()
		if redirects+rotations == 0 {
			return fmt.Errorf("the uplink never failed over — the drill was vacuous")
		}
		dash.mark("end of run")
		dash.print()
		if err := validateLiveMetrics(scrapeTargets); err != nil {
			return err
		}
		if err := assertDrillTelemetry(drill, len(gwSchedule)); err != nil {
			return err
		}
		epoch, holder, err := drill.leaseView()
		if err != nil {
			return err
		}
		// Read-side verification: a fresh registry rebuild over the
		// shards, exactly what a newly promoted gateway does at boot.
		cgw := drill.fleet.gw.Load()
		n, err := cgw.RebuildRegistry()
		if err != nil {
			return fmt.Errorf("registry rebuild: %w", err)
		}
		fmt.Printf("verification gateway rebuilt its registry from the shards (%d devices)\n", n)
		printRollup(cgw)
		if err := verifyGroundTruth(b, cgw, streams, seed); err != nil {
			return err
		}
		fmt.Printf("gateway-failover verified: %d active-gateway kill(s), %d leader-hint redirect(s) + %d rotation(s), leadership settled at epoch %d (%s), fleet state byte-identical to the clean ground truth\n",
			drill.kills.Load(), redirects, rotations, epoch, holder)
		return nil
	}
	if crashPool != nil {
		// The last kill can fire after the final batch it disturbs is
		// retransmitted elsewhere; wait for the restart to finish before
		// reading the recovered state.
		if killerDone != nil {
			select {
			case <-killerDone:
			case <-time.After(60 * time.Second):
				return fmt.Errorf("crash schedule never completed — a killed shard failed to restart")
			}
			select {
			case err := <-killerErrs:
				return err
			default:
			}
			if got := crashPool.kills.Load(); got != int64(len(killSchedule)) {
				return fmt.Errorf("crash drill fired %d of %d scheduled kills — the drill was vacuous", got, len(killSchedule))
			}
		}
		dash.mark("end of run")
		dash.print()
		if err := validateLiveMetrics(scrapeTargets); err != nil {
			return err
		}
		if err := crashPool.assertStreamTelemetry(); err != nil {
			return err
		}
		if err := crashPool.assertWALTelemetry(); err != nil {
			return err
		}
		cgw := crashPool.gw.Load()
		printRollup(cgw)
		if err := verifyGroundTruth(b, cgw, streams, seed); err != nil {
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
	if gw != nil {
		// Before the final mark: the rollup's federated read is then a
		// row of the dashboard's stage table.
		printRollup(gw)
	}
	dash.mark("end of run")
	dash.print()
	if len(scrapeTargets) > 0 {
		if err := validateLiveMetrics(scrapeTargets); err != nil {
			return err
		}
	} else if gw != nil {
		if err := validateRegistry(gw.Metrics()); err != nil {
			return err
		}
	}
	if gw == nil {
		printRemoteOccupancy(target)
	}
	if flaky > 0 {
		injected := 0
		for _, f := range flakies {
			injected += f.InjectedFailures()
		}
		if injected == 0 {
			return fmt.Errorf("flaky run injected no failures — the drill was vacuous; raise -reports or -flaky")
		}
		if err := verifyGroundTruth(b, gw, streams, seed); err != nil {
			return err
		}
		fmt.Printf("exactly-once verified: %d injected failures, flaky-run state is byte-identical to the clean ground truth\n", injected)
	}
	return nil
}

// inProcessFleet builds, trains and model-distributes a local fleet,
// optionally wrapping every shard in a deterministic fault injector
// (the wrappers are returned so the run can prove faults actually
// fired).
func inProcessFleet(b *building.Building, shards int, seed uint64, flaky float64) (*fleet.Gateway, []*fleettest.FlakyShard, error) {
	pool, err := fleet.NewLocalPool(b, shards, 2, 1000)
	if err != nil {
		return nil, nil, err
	}
	ring := pool.Shards
	var flakies []*fleettest.FlakyShard
	if flaky > 0 {
		every := int(math.Round(1 / flaky))
		if every < 2 {
			every = 2
		}
		ring = make([]fleet.Shard, len(pool.Shards))
		for i, s := range pool.Shards {
			fs := &fleettest.FlakyShard{Shard: s, FailEvery: every}
			ring[i] = fs
			flakies = append(flakies, fs)
		}
	}
	gw, err := fleet.New(ring, fleet.Config{})
	if err != nil {
		return nil, nil, err
	}
	// One shared registry for the gateway and every shard: identical
	// series share handles, so the dashboard reads pool-wide aggregates.
	met := obs.New()
	gw.Instrument(met)
	for _, srv := range pool.Servers {
		srv.Instrument(met)
	}
	if len(b.Rooms) < 2 {
		// The scene-analysis SVM needs at least two classes; plans with
		// fewer rooms run on the default proximity classifier.
		return gw, flakies, nil
	}
	if err := experiments.TrainAndDistribute(gw, b, seed); err != nil {
		return nil, nil, err
	}
	return gw, flakies, nil
}

// retryUplink retransmits failed exchanges whole — the loadgen-side
// equivalent of transport.RetryPolicy for the in-process path. gap
// spaces the attempts; crash runs use it to ride out a shard restart.
type retryUplink struct {
	next transport.Uplink
	max  int
	gap  time.Duration
}

func (r retryUplink) Name() string { return "retry(" + r.next.Name() + ")" }

func (r retryUplink) Send(rep transport.Report) error {
	var err error
	for i := 0; i < r.max; i++ {
		if i > 0 && r.gap > 0 {
			time.Sleep(r.gap)
		}
		if err = r.next.Send(rep); err == nil {
			return nil
		}
	}
	return err
}

func (r retryUplink) SendBatch(reports []transport.Report) error {
	bs, ok := r.next.(transport.BatchSender)
	if !ok {
		for _, rep := range reports {
			if err := r.Send(rep); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	for i := 0; i < r.max; i++ {
		if i > 0 && r.gap > 0 {
			time.Sleep(r.gap)
		}
		if err = bs.SendBatch(reports); err == nil {
			return nil
		}
	}
	return err
}

// runScenario drives one adversarial scenario from internal/scenario
// through an in-process fleet and its ground-truth oracle, and — for
// the scenarios whose whole point is a hostile mechanism firing —
// exits nonzero if the run was vacuous.
func runScenario(name string, storm, shards, devices, reports int, seed, epoch uint64) error {
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
	if storm > 0 && name != "storm" {
		return fmt.Errorf("-storm only applies to the storm scenario, not %q", name)
	}
	res, err := scenario.Run(sc, scenario.Config{
		Devices: devices,
		Reports: reports,
		Shards:  shards,
		Seed:    seed,
		Epoch:   epoch,
		Repeat:  storm,
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

// verifyGroundTruth replays the same streams — exactly once, no
// faults — into a single reference server trained identically, and
// requires the flaky fleet's federated occupancy, events, dwell and
// rollup to be byte-identical, with every device accounted for. This is the
// exactly-once contract made an executable assertion; the heavy
// lifting lives in internal/scenario so the adversarial matrix and the
// crash drill share one oracle.
func verifyGroundTruth(b *building.Building, gw *fleet.Gateway, streams [][]transport.Report, seed uint64) error {
	ref, err := scenario.Reference(b, streams, seed)
	if err != nil {
		return err
	}
	return scenario.VerifyExact(gw, ref)
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

// latencyRecorder measures every exchange against the sink. It is the
// shared funnel for all device goroutines, so it also counts batches.
type latencyRecorder struct {
	next transport.Uplink

	mu        sync.Mutex
	durations []float64 // milliseconds per exchange
	batches   int
	sent      int
}

func (l *latencyRecorder) Name() string { return "measured(" + l.next.Name() + ")" }

func (l *latencyRecorder) Send(r transport.Report) error {
	start := time.Now()
	err := l.next.Send(r)
	l.observe(start, 1, err)
	return err
}

func (l *latencyRecorder) SendBatch(reports []transport.Report) error {
	bs, ok := l.next.(transport.BatchSender)
	if !ok {
		for _, r := range reports {
			if err := l.Send(r); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	err := bs.SendBatch(reports)
	l.observe(start, len(reports), err)
	return err
}

func (l *latencyRecorder) observe(start time.Time, n int, err error) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	l.mu.Lock()
	l.durations = append(l.durations, ms)
	l.batches++
	if err == nil {
		l.sent += n
	}
	l.mu.Unlock()
}

func printReport(total int, elapsed time.Duration, rec *latencyRecorder) {
	rec.mu.Lock()
	durations := append([]float64(nil), rec.durations...)
	batches, sent := rec.batches, rec.sent
	rec.mu.Unlock()

	fmt.Printf("sent %d reports in %v → %.0f reports/s (%d exchanges, mean batch %.1f)\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds(),
		batches, float64(sent)/float64(batches))
	if total != sent {
		fmt.Printf("WARNING: %d of %d reports unaccounted for\n", total-sent, total)
	}
	if len(durations) > 0 {
		sort.Float64s(durations)
		fmt.Printf("exchange latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
			stats.Percentile(durations, 50), stats.Percentile(durations, 90),
			stats.Percentile(durations, 99), durations[len(durations)-1])
	}
}

// printRollup renders the in-process fleet's federated occupancy view —
// the payoff the load was generating for.
func printRollup(gw *fleet.Gateway) {
	rollup, err := gw.Rollup()
	if err != nil {
		fmt.Println("rollup unavailable:", err)
		return
	}
	rooms := make([]string, 0, len(rollup.Rooms))
	for room := range rollup.Rooms {
		rooms = append(rooms, room)
	}
	sort.Strings(rooms)
	var parts []string
	for _, room := range rooms {
		parts = append(parts, fmt.Sprintf("%s:%d", room, rollup.Rooms[room].Occupants))
	}
	fmt.Printf("federated rollup: %d devices, %d events | %s\n",
		rollup.Devices, rollup.Events, strings.Join(parts, " "))
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
	rooms := make([]string, 0, len(snap.Rooms))
	for room := range snap.Rooms {
		rooms = append(rooms, room)
	}
	sort.Strings(rooms)
	var parts []string
	for _, room := range rooms {
		parts = append(parts, fmt.Sprintf("%s:%d", room, snap.Rooms[room]))
	}
	fmt.Printf("remote occupancy: %s\n", strings.Join(parts, " "))
}

// Command loadgen is the crowd-scale load generator: it drives a crowd of
// simulated handsets, each with its own coalescing uplink, into a BMS
// fleet, reports ingest throughput and exchange latency percentiles, and
// ends by checking what it built.
//
// Every run is one pipeline — parse the flags → open a rig → drive the
// crowd → verify — and each flag belongs to one object that pipeline may
// build. A flag set for an object this run does not build exits 2 naming
// it and the flag that decides; nothing is silently ignored.
//
//	object                          built when                  its flags
//	the crowd                       always                      -source -devices -reports -seed -plan,
//	                                                            -epoch -rate -batch -flush
//	an in-process fleet             neither -target nor -bmsd   -shards -plan -flaky
//	a remote target                 -target                     -wire
//	bmsd subprocess shards          -bmsd                       -shards -plan -fsync -data-root
//	  the shard kill drill          -kill                       -restart-gateway
//	  the HA gateway pair drill     -kill-gateway               -wire
//	an adversarial scenario         -scenario or -storm         -devices -reports -shards -seed -epoch -storm
//
// A scenario builds its crowd and its fleet itself (internal/scenario: a
// hostile delivery plan checked against its ground-truth oracle;
// -scenario list prints the library).
//
//	go run ./cmd/loadgen -shards 4 -devices 64 -reports 150
//	go run ./cmd/loadgen -target http://127.0.0.1:8080 -devices 32 -wire binary
//	go run ./cmd/loadgen -source phones -target http://127.0.0.1:8080 -devices 3 -reports 60
//	go run ./cmd/loadgen -shards 3 -rate 400 -kill 40,80 -restart-gateway -bmsd bin/bmsd
//	go run ./cmd/loadgen -shards 3 -kill-gateway 40,80 -bmsd bin/bmsd -wire binary
//
// The crowd is -source synthetic (one report of every beacon of the plan
// per device each 2 s, jittered distances) or -source phones (the paper's
// Android pipeline in simulation: -devices phones walk the plan's rooms for
// -reports scan cycles of 2 s, and a device reports only the beacons it
// ranged). Every report carries a per-device sequence number, so shards
// deduplicate whatever the uplinks retransmit.
//
// -flaky p fails a fraction p of the in-process shards' deliveries, half
// after the shard committed. -kill "t1,t2,..." SIGKILLs a bmsd shard at
// each trace time and restarts it over its write-ahead log (and with
// -restart-gateway rebuilds loadgen's gateway too); -kill-gateway
// SIGKILLs the active gateway of a bmsd -self pair instead, for the
// standby to take over.
//
// The run ends with a telemetry dashboard and every assertion that applies
// to what the rig built: each face's /metrics exposition well-formed; for
// subprocess shards, frames taken over streams (a reset and a redial per
// shard kill, none otherwise), one fsync per acknowledged append under
// -fsync batch, and a SIGTERM drain that stops the streams before it
// compacts into one snapshot beside one wal.log; for the gateway pair,
// one lease claim per kill, no stale-epoch write admitted, and (-wire
// binary) pre-split uploads in every phase; and wherever loadgen built
// the fleet, federated occupancy, events, dwell and rollup byte-identical
// to a clean single server fed the same streams exactly once. It exits 1
// on the first that fails.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/scenario"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// options is the parsed command line.
type options struct {
	target, plan, source, kill, killGateway, bmsdPath, dataRoot, fsync, scenario string

	shards, devices, reports, batch, storm int
	rate, flush, flaky                     float64
	seed, epoch                            uint64
	restartGateway                         bool

	// Resolved by check: the floor plan, the device codec, and the kill
	// schedule with the flag that set it.
	building *building.Building
	codec    transport.Codec
	drill    string
	schedule []float64
}

// parseFlags reads the command line and refuses what it cannot honour,
// reporting on stderr: an unknown flag, a value out of range, and any
// flag set explicitly for an object this run does not build.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := new(options)
	var wire string
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.target, "target", "", "drive a running BMS or fleet gateway at this URL instead of a fleet loadgen builds")
	fs.IntVar(&o.shards, "shards", 2, "shard count of the fleet loadgen builds (in process, -bmsd, or the scenario's)")
	fs.StringVar(&o.plan, "plan", "paper-house", "floor plan of the crowd and of the fleet loadgen builds")
	fs.StringVar(&o.source, "source", "synthetic", "the crowd: synthetic (every beacon of the plan in every report), or phones (the paper's app pipeline on walking phones)")
	fs.IntVar(&o.devices, "devices", 32, "simulated handset count")
	fs.IntVar(&o.reports, "reports", 150, "reports per device of the synthetic crowd, scan cycles of the phones")
	fs.Float64Var(&o.rate, "rate", 0, "total reports/s pacing across the crowd (0: unpaced)")
	fs.IntVar(&o.batch, "batch", 64, "max reports per coalesced batch")
	fs.Float64Var(&o.flush, "flush", 20, "batch flush window in report-time seconds")
	fs.Uint64Var(&o.seed, "seed", 11, "synthesis and training seed")
	fs.Float64Var(&o.flaky, "flaky", 0, "in-process fleet: fraction of shard deliveries to fail, half after commit")
	fs.Uint64Var(&o.epoch, "epoch", 1, "device epoch stamped on sequenced reports")
	fs.StringVar(&o.kill, "kill", "", "with -bmsd: SIGKILL a shard at each trace time \"t1,t2,...\" (seconds) and restart it over its WAL")
	fs.StringVar(&o.killGateway, "kill-gateway", "", "with -bmsd: front the shards with an active/standby bmsd gateway pair and SIGKILL the active at each trace time \"t1,t2,...\"")
	fs.StringVar(&o.bmsdPath, "bmsd", "", "path to a built bmsd binary: run the shards as durable bmsd subprocesses")
	fs.StringVar(&o.dataRoot, "data-root", "", "with -bmsd: root of the shards' data directories (empty: a temp dir, removed at exit)")
	fs.StringVar(&o.fsync, "fsync", "batch", "with -bmsd: the shards' WAL sync policy: batch or off")
	fs.BoolVar(&o.restartGateway, "restart-gateway", false, "with -kill: also discard and rebuild loadgen's gateway at each kill")
	fs.StringVar(&o.scenario, "scenario", "", "run a named adversarial scenario from internal/scenario against its oracle (list: the library)")
	fs.IntVar(&o.storm, "storm", 0, "shorthand for -scenario storm with each batch sent k times")
	fs.StringVar(&wire, "wire", "json", "the devices' HTTP uplink codec (-target, -kill-gateway): json, or binary (pre-split per shard where the target publishes a ring, one plain frame where it does not, each upload one envelope on an upgraded stream; JSON for good where the upgrade is refused)")
	if err := fs.Parse(args); err != nil {
		return nil, err // the flag set has already reported it
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := o.check(set, wire); err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return nil, err
	}
	return o, nil
}

// check is the one statement of which flags belong to which object: a
// flag set explicitly while its object goes unbuilt is an error naming
// both that flag and the one that decides. It then resolves the values
// the rig is built from.
func (o *options) check(set map[string]bool, wire string) (err error) {
	for _, rule := range []struct {
		unbuilt      bool
		flags, given string
	}{
		{o.scenario != "" || o.storm > 0, "target bmsd kill kill-gateway flaky wire rate batch flush source plan", "the driven crowd, and -scenario (or -storm) runs a scenario's crowd and fleet instead"},
		{o.storm > 0 && o.scenario != "" && o.scenario != "storm", "storm", "the storm scenario, and -scenario names " + strconv.Quote(o.scenario)},
		{o.target != "", "shards bmsd kill kill-gateway flaky", "a fleet loadgen builds, and -target drives one it did not"},
		{o.bmsdPath == "", "kill kill-gateway fsync data-root", "the bmsd subprocess shards, which need -bmsd"},
		{o.bmsdPath != "", "flaky", "the in-process shards, and -bmsd replaces them"},
		{o.kill == "", "restart-gateway", "the shard kill drill, which needs -kill"},
		{o.kill != "", "kill-gateway", "a second kill drill, and -kill already schedules the rig's one"},
		{o.target == "" && o.killGateway == "", "wire", "the devices' HTTP uplink, which needs -target or -kill-gateway"},
	} {
		for _, name := range strings.Fields(rule.flags) {
			if rule.unbuilt && set[name] {
				return fmt.Errorf("-%s configures %s", name, rule.given)
			}
		}
	}
	if o.scenario != "" || o.storm > 0 {
		o.scenario = cmp.Or(o.scenario, "storm")
		return nil
	}
	switch {
	case o.devices < 1:
		return errors.New("-devices must be at least 1")
	case o.shards < 1:
		return errors.New("-shards must be at least 1")
	case o.flaky < 0 || o.flaky >= 1:
		return fmt.Errorf("-flaky %v outside [0, 1)", o.flaky)
	case o.source != "synthetic" && o.source != "phones":
		return fmt.Errorf("-source %q: want synthetic or phones", o.source)
	}
	if o.building, err = building.ByName(o.plan); err != nil {
		return fmt.Errorf("-plan: %w", err)
	}
	if o.codec, err = transport.ParseCodec(wire); err != nil {
		return fmt.Errorf("-wire: %w", err)
	}
	if _, err = store.ParseFsyncPolicy(o.fsync); err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	o.drill = "-kill"
	if o.killGateway != "" {
		o.drill = "-kill-gateway"
	}
	o.schedule, err = parseKillSchedule(o.drill, o.kill+o.killGateway) // the rules above let one be set
	return err
}

// parseKillSchedule parses "t1,t2,..." into sorted trace times (seconds
// on the reports' own clock).
func parseKillSchedule(flagName, s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		t, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", flagName, s, err)
		}
		if t < 0 {
			return nil, fmt.Errorf("%s time %v is negative", flagName, t)
		}
		out = append(out, t)
	}
	sort.Float64s(out)
	return out, nil
}

// crowd is the run's streams, one per device, from the -source.
func (o *options) crowd() (streams [][]transport.Report, total int, err error) {
	if o.source == "phones" {
		streams, err = experiments.PhoneCrowdStreams(o.building, o.devices, o.reports, o.seed)
	} else {
		streams, _, _ = experiments.SynthCrowdStreams(o.building, o.devices, o.reports, o.seed)
	}
	if err != nil {
		return nil, 0, err
	}
	span := 0.0
	for _, s := range streams {
		total += len(s)
		span = max(span, newest(s))
	}
	if total == 0 {
		return nil, 0, errors.New("no reports to send")
	}
	if n := len(o.schedule); n > 0 && o.schedule[n-1] > span {
		return nil, 0, fmt.Errorf("%s time %v is beyond the streams' trace span (%.0fs) and would never fire; raise -reports", o.drill, o.schedule[n-1], span)
	}
	return streams, total, nil
}

// run is loadgen: open a rig → drive the crowd → verify, once.
func run(o *options, stdout, stderr io.Writer) error {
	streams, total, err := o.crowd()
	if err != nil {
		return err
	}
	r, err := open(o, stdout, stderr)
	if err != nil {
		return err
	}
	defer r.close()
	fmt.Fprintf(stdout, "loadgen: %d devices, %d reports → %s\n", o.devices, total, r.name)
	d := scenario.Driver{
		Epoch:    o.epoch,
		Coalesce: &transport.BatchConfig{FlushSeconds: o.flush, MaxBatch: o.batch},
	}
	if o.rate > 0 {
		d.Gap = time.Duration(float64(o.devices) / o.rate * float64(time.Second))
	}
	ran, err := r.drive(d, streams)
	if err != nil {
		return err
	}
	printReport(stdout, total, ran)
	return r.verify(streams)
}

// runScenario drives one adversarial scenario from internal/scenario
// through an in-process fleet and its ground-truth oracle, and — for
// the scenarios whose whole point is a hostile mechanism firing —
// fails if the run was vacuous.
func runScenario(o *options, stdout io.Writer) error {
	name := o.scenario
	if name == "list" {
		for _, sc := range scenario.All() {
			fmt.Fprintf(stdout, "%-8s %s (oracle: %s)\n", sc.Name, sc.Description, sc.Oracle)
		}
		return nil
	}
	sc, err := scenario.ByName(name)
	if err != nil {
		return err
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
	switch {
	case name == "storm" && res.Shed == 0:
		return errors.New("storm run shed nothing — the drill was vacuous; raise -storm or -devices")
	case name == "skew" && res.SkewAdjusted == 0:
		return errors.New("skew run re-anchored nothing — the drill was vacuous")
	}
	fmt.Fprintln(stdout, res)
	return nil
}

// realMain returns the exit status: 2 for a command line loadgen refuses,
// 1 for a run that fails.
func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	if o.scenario != "" {
		err = runScenario(o, stdout)
	} else {
		err = run(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}
	return 0
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// printReport prints what the driver measured. The mean batch is over
// the exchanges that were acknowledged, as the reports it divides are.
func printReport(w io.Writer, total int, ran *scenario.Driven) {
	fmt.Fprintf(w, "sent %d reports in %v → %.0f reports/s (%d exchanges, mean batch %.1f)\n",
		ran.Acked, ran.Elapsed.Round(time.Millisecond), float64(ran.Acked)/ran.Elapsed.Seconds(),
		ran.Exchanges, float64(ran.Acked)/float64(ran.AckedExchanges))
	if total != ran.Acked {
		fmt.Fprintf(w, "WARNING: %d of %d reports unaccounted for\n", total-ran.Acked, total)
	}
	fmt.Fprintf(w, "exchange latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		ran.LatencyMs(50), ran.LatencyMs(90), ran.LatencyMs(99), ran.LatencyMs(100))
}

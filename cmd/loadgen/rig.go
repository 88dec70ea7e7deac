package main

// The rig is what a run drives and then checks. It is one of three
// objects — an in-process fleet, a remote -target, or bmsd subprocess
// shards (under -kill-gateway fronted by an active/standby pair of bmsd
// gateways) — and it carries its sink, its telemetry faces and at most
// one kill schedule. verify then holds the run to every assertion that
// applies to what was built.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/transport"
)

// drillLeaseTTL is deliberately short so a takeover completes well
// inside the uplink's retransmission budget.
const drillLeaseTTL = 500 * time.Millisecond

// presplitBatches is the devices' count of pre-split uploads.
const presplitBatches = `transport_wire_batches_total{codec="presplit"}`

type rig struct {
	o         *options
	out, logs io.Writer // the run's report; the subprocesses' output
	name      string    // what the devices are driven into

	// The devices send through uplink (-target, the gateway pair) or, where
	// loadgen built the gateway itself, through gw — swapped mid-run by
	// -restart-gateway.
	uplink *transport.HTTPUplink
	gw     atomic.Pointer[fleet.Gateway]
	// fleet holds the ground truth every run that built its fleet is
	// verified against; nil under -target.
	fleet *scenario.Fleet
	faces []face
	dash  *dashboard

	// fire is the kill schedule's action (nil: no schedule). It runs as
	// the devices' trace clock — the newest report time any exchange has
	// carried — passes each of the schedule's times.
	fire    func(n int, t float64) error
	clockMu sync.Mutex
	clock   float64
	ticked  chan struct{} // the clock moved: the schedule looks again at once

	shards, pair []*proc
	root         string // the shards' data directories
	tempRoot     bool   // root is loadgen's to remove
}

// open builds the run's rig: bmsd subprocesses under -bmsd, the target
// under -target, an in-process fleet otherwise.
func open(o *options, stdout, stderr io.Writer) (*rig, error) {
	r := &rig{o: o, out: stdout, logs: stderr, ticked: make(chan struct{}, 1)}
	// The devices' registry; transport is instrumented process-wide.
	devices := obs.New()
	transport.Instrument(devices)
	r.faces = []face{{name: "devices", met: devices}}
	var err error
	switch {
	case o.bmsdPath != "":
		err = r.openProcs()
	case o.target != "":
		r.uplink = &transport.HTTPUplink{BaseURL: o.target, Retry: transport.DefaultRetry(), Codec: o.codec}
		r.faces = append(r.faces, face{name: "target", url: o.target})
		r.name = fmt.Sprintf("%s (wire=%s)", o.target, o.codec)
	default:
		err = r.openInProcess()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.dash = &dashboard{scrape: r.scrape}
	return r, nil
}

// openInProcess builds the fleet in process, with every shard behind a
// fault injector under -flaky. One registry serves the gateway and every
// shard: identical series share handles, so the dashboard reads pool-wide
// aggregates.
func (r *rig) openInProcess() error {
	spec := scenario.Spec{Shards: r.o.shards, Metrics: obs.New()}
	r.name = fmt.Sprintf("in-process %d-shard fleet", r.o.shards)
	if r.o.flaky > 0 {
		spec.Wrap = scenario.Flaky(max(2, int(math.Round(1/r.o.flaky))))
		r.name += fmt.Sprintf(" (flaky %.0f%% of batch calls)", 100*r.o.flaky)
	}
	var err error
	if r.fleet, err = scenario.Build(r.o.building, spec, r.o.seed); err != nil {
		return err
	}
	r.gw.Store(r.fleet.Gateways[0])
	r.faces = append(r.faces, face{name: "fleet", met: spec.Metrics})
	return nil
}

// openProcs spawns one durable single-shard bmsd per shard and fronts them
// with loadgen's own gateway of HTTPShards, trained and model-distributed.
// Its base URLs are the ring identity and a restarted shard rebinds the
// same port, so routing is stable across every gateway rebuild — and no
// health probe runs, so a killed shard's reports retransmit into its
// recovered WAL state instead of rebuilding, lossily, on a stand-in. With
// -kill-gateway the devices reach the shards through the bmsd pair
// instead, and loadgen's gateway only reads the end state.
func (r *rig) openProcs() error {
	o := r.o
	if r.root = o.dataRoot; r.root == "" {
		dir, err := os.MkdirTemp("", "loadgen-bmsd-*")
		if err != nil {
			return err
		}
		r.root, r.tempRoot = dir, true
	}
	var urls []string
	for i := range o.shards {
		p, err := newProc(o.bmsdPath, fmt.Sprintf("shard-%d", i), r.logs)
		if err != nil {
			return err
		}
		p.args = append(p.args, "-plan", o.plan, "-shards", "1", "-debounce", "2", "-retain", "1000",
			"-data-dir", filepath.Join(r.root, p.name), "-fsync", o.fsync)
		r.shards = append(r.shards, p)
		urls = append(urls, p.url())
		if err := p.start(); err != nil {
			return err
		}
	}
	for _, p := range r.shards {
		if err := p.waitHealthy(); err != nil {
			return err
		}
	}
	// Every gateway built over the pool reports into one registry: a
	// rebuilt gateway counts on the same series, so the stream counters
	// span the whole run.
	met := obs.New()
	var err error
	if r.fleet, err = scenario.Build(o.building, scenario.Spec{ShardURLs: urls, Metrics: met}, o.seed); err != nil {
		return err
	}
	r.gw.Store(r.fleet.Gateways[0])
	r.faces = append(r.faces, face{name: "loadgen-gateway", met: met})
	for _, p := range r.shards {
		r.faces = append(r.faces, face{name: p.name, url: p.url()})
	}
	switch {
	case o.killGateway != "":
		// After the training above: it went through loadgen's gateway
		// before any lease existed, so its writes were unfenced.
		r.fire = r.killActive
		r.name = fmt.Sprintf("active/standby HA gateway pair over %d bmsd shard(s), SIGKILL the active at trace t=%v (fsync=%s, wire=%s)",
			o.shards, o.schedule, o.fsync, o.codec)
		return r.openPair(urls)
	case o.kill != "":
		r.fire = r.killShard
		r.name = fmt.Sprintf("%d bmsd subprocess shard(s), SIGKILL at trace t=%v (fsync=%s)", o.shards, o.schedule, o.fsync)
	default:
		r.name = fmt.Sprintf("%d live bmsd subprocess shard(s), no faults (fsync=%s)", o.shards, o.fsync)
	}
	return nil
}

// openPair spawns the active/standby gateway pair over the shards and
// waits until the shards agree the active holds epoch 1.
func (r *rig) openPair(shardURLs []string) error {
	for _, name := range []string{"gateway-A", "gateway-B"} {
		g, err := newProc(r.o.bmsdPath, name, r.logs)
		if err != nil {
			return err
		}
		r.pair = append(r.pair, g)
	}
	for i, g := range r.pair {
		g.args = append(g.args, "-shard-urls", strings.Join(shardURLs, ","), "-self", g.url(),
			"-peer", r.pair[1-i].url(), "-lease-ttl", drillLeaseTTL.String())
	}
	if err := r.pair[0].start(); err != nil {
		return err
	}
	if err := r.pair[1].start("-standby"); err != nil {
		return err
	}
	for _, g := range r.pair {
		if err := g.waitHealthy(); err != nil {
			return err
		}
	}
	if err := r.waitLeader(r.pair[0], 0, 15*time.Second); err != nil {
		return fmt.Errorf("%s never claimed leadership: %w", r.pair[0].name, err)
	}
	r.uplink = &transport.HTTPUplink{BaseURL: r.pair[0].url(), Peers: []string{r.pair[1].url()},
		Retry: transport.DefaultRetry(), Codec: r.o.codec}
	return nil
}

// front is where the devices' next exchange goes.
func (r *rig) front() scenario.Sink {
	if r.uplink != nil {
		return r.uplink
	}
	return fleet.GatewayUplink{Gateway: r.gw.Load()}
}

// Name, Send and SendBatch make the rig the devices' sink: each exchange
// advances the trace clock, then goes to the front.
func (r *rig) Name() string { return r.front().Name() }

func (r *rig) Send(rep transport.Report) error { return r.SendBatch([]transport.Report{rep}) }

func (r *rig) SendBatch(reports []transport.Report) error {
	r.advance(reports)
	return r.front().SendBatch(reports)
}

func (r *rig) advance(reports []transport.Report) {
	r.clockMu.Lock()
	r.clock = max(r.clock, newest(reports))
	r.clockMu.Unlock()
	select {
	case r.ticked <- struct{}{}:
	default:
	}
}

func (r *rig) passed(t float64) bool {
	r.clockMu.Lock()
	defer r.clockMu.Unlock()
	return r.clock >= t
}

// runSchedule fires the kill schedule in order, returning once it is
// exhausted, a kill fails, or stop closes. A kill fires as soon as the
// exchange that carries the clock past its time is sent: an unpaced crowd
// is through its whole trace in a few milliseconds.
func (r *rig) runSchedule(stop <-chan struct{}) error {
	for n, t := range r.o.schedule {
		for !r.passed(t) {
			select {
			case <-stop:
				return nil
			case <-r.ticked:
			}
		}
		if err := r.fire(n, t); err != nil {
			return err
		}
	}
	return nil
}

// drive sends the crowd through the rig while its kill schedule, if any,
// runs; the run is over when both are.
func (r *rig) drive(d scenario.Driver, streams [][]transport.Report) (*scenario.Driven, error) {
	// The one fault-budget rule: a killed process is down for its whole
	// restart (recovery or takeover, then rebind), so a kill schedule
	// needs a real gap and a deep budget; a flaky in-process shard answers
	// the next exchange at once. A rig nobody breaks has no business
	// failing an exchange.
	switch {
	case r.fire != nil:
		d.Faults = scenario.Budget{Attempts: 300, Gap: 100 * time.Millisecond}
	case r.o.flaky > 0:
		d.Faults = scenario.Budget{Attempts: 10}
	}
	r.dash.mark("start")
	if r.fire == nil {
		return d.Drive(scenario.Lanes(streams, 1), r)
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() { done <- r.runSchedule(stop) }()
	ran, err := d.Drive(scenario.Lanes(streams, 1), r)
	if err != nil {
		close(stop)
		<-done
		return nil, err
	}
	// The last kill's restart or takeover can outlive the final batch (it
	// lands through a survivor): wait for it before reading the shards.
	select {
	case err = <-done:
	case <-time.After(120 * time.Second):
		err = fmt.Errorf("%s schedule never completed — a restart or takeover stalled", r.o.drill)
	}
	return ran, err
}

// scrape reads every telemetry face once, by name.
func (r *rig) scrape() (map[string]obs.Snapshot, error) {
	snaps := make(map[string]obs.Snapshot, len(r.faces))
	for _, f := range r.faces {
		snap, err := f.snapshot()
		if err != nil {
			return nil, err
		}
		snaps[f.name] = snap
	}
	return snaps, nil
}

// verify ends every run. It reads the federated rollup, scrapes each
// face once, and then runs every assertion that applies to what the rig
// built: the exposition of every face; streams, WAL group commit and
// drain for subprocess shards; failover, lease claims, stale admits and
// pre-split phases for the gateway pair; and the ground truth wherever
// loadgen built the fleet. It prints the run's one success line last.
func (r *rig) verify(streams [][]transport.Report) error {
	gw := r.gw.Load()
	if r.pair != nil {
		// What a newly promoted gateway does at boot.
		n, err := gw.RebuildRegistry()
		if err != nil {
			return fmt.Errorf("registry rebuild: %w", err)
		}
		fmt.Fprintf(r.out, "verification gateway rebuilt its registry from the shards (%d devices)\n", n)
	}
	// Before the final mark: the rollup's federated read is then a row of
	// the dashboard's stage table.
	r.printRollup(gw)
	end, err := r.scrape()
	if err != nil {
		return err
	}
	r.dash.record("end of run", end, nil)
	r.dash.print(r.out)
	// The gateway pair is validated but not a dashboard face: a killed
	// gateway restarts with a fresh registry, which would make
	// cross-phase deltas jump.
	faces := slices.Clone(r.faces)
	for _, g := range r.pair {
		faces = append(faces, face{name: g.name, url: g.url()})
	}
	if err := validateExposition(r.out, faces); err != nil {
		return err
	}
	if r.shards != nil {
		if err := r.checkShards(end); err != nil {
			return err
		}
	}
	var verdict string
	switch kills := len(r.o.schedule); {
	case r.pair != nil:
		verdict, err = r.checkFailover(kills)
	case kills > 0:
		verdict = fmt.Sprintf("crash-recovery verified: %d kill -9 restart(s), recovered fleet state is byte-identical to the clean ground truth", kills)
	case r.shards != nil:
		verdict = "live-shard run verified: state byte-identical to the clean ground truth, /metrics valid on every shard"
	case r.o.flaky > 0:
		verdict = fmt.Sprintf("exactly-once verified: %d injected failures, flaky-run state is byte-identical to the clean ground truth", r.fleet.Injected())
	case r.fleet != nil:
		verdict = "in-process run verified: fleet state byte-identical to the clean ground truth"
	default:
		verdict = fmt.Sprintf("remote run verified: %s acknowledged every report and serves well-formed /metrics (loadgen did not build it: no ground truth)", r.o.target)
	}
	if err != nil {
		return err
	}
	if r.fleet != nil {
		if err := r.fleet.Verify(gw, scenario.Exact, streams); err != nil {
			return err
		}
	}
	if r.shards != nil {
		if err := r.drain(); err != nil {
			return err
		}
	}
	fmt.Fprintln(r.out, verdict)
	return nil
}

// printRollup renders the run's federated occupancy — the payoff the load
// was generating for — read through loadgen's gateway, or from the
// target's GET /api/v1/rollup.
func (r *rig) printRollup(gw *fleet.Gateway) {
	var rollup fleet.Rollup
	var err error
	if gw != nil {
		rollup, err = gw.Rollup()
	} else {
		var payload []byte
		if payload, err = transport.GetJSON(scrapeClient, r.o.target+"/api/v1/rollup", transport.RetryPolicy{}); err == nil {
			err = json.Unmarshal(payload, &rollup)
		}
	}
	if err != nil {
		fmt.Fprintln(r.out, "rollup unavailable:", err)
		return
	}
	rooms := slices.Sorted(maps.Keys(rollup.Rooms))
	for i, room := range rooms {
		rooms[i] = fmt.Sprintf("%s:%d", room, rollup.Rooms[room].Occupants)
	}
	fmt.Fprintf(r.out, "federated rollup: %d devices, %d events | %s\n", rollup.Devices, rollup.Events, strings.Join(rooms, " "))
	if gw != nil {
		for _, s := range gw.Statuses() {
			fmt.Fprintf(r.out, "  %s: %d reports routed\n", s.Name, s.Routed)
		}
	}
}

// legCounter reads one of loadgen's gateway's per-shard stream counters.
func legCounter(snap obs.Snapshot, family string, p *proc) float64 {
	return snap.Counters[fmt.Sprintf("%s{shard=%q}", family, p.url())]
}

// checkShards holds every subprocess shard to its end-of-run telemetry.
//
// Streams: every report a shard ingested came in a frame off a stream, a
// clean run reset none, and every SIGKILL of a shard cost loadgen's
// gateway at least one reset and one redial of that shard. The ring is
// keyed by the shards' URLs, so now and then a run gives a shard no
// device; it owes no frames. Under the gateway pair the legs are the
// pair's, counted in registries that restart with each gateway, so only
// the shards' side is asserted.
//
// The log: under -fsync batch every acknowledged append was covered by
// exactly one completed fsync — the group sizes sum to the append count,
// whoever led — and no append failed. A restarted shard counts from its
// restart.
//
// The lease: under the gateway pair every kill produced exactly one
// successful claim on every shard, beyond the bootstrap claim, and no
// deposed gateway's write was ever admitted past the fence.
func (r *rig) checkShards(end map[string]obs.Snapshot) error {
	var frames float64
	var appends, fsyncs uint64
	claims := float64(len(r.o.schedule) + 1)
	for _, p := range r.shards {
		snap := end[p.name]
		took := snap.Counters["bms_stream_frames_total"]
		groups, appended := snap.Histograms["wal_group_commit_frames"], snap.Histograms["wal_append_seconds"]
		frames, appends, fsyncs = frames+took, appends+appended.Count, fsyncs+groups.Count
		switch {
		case took == 0 && snap.Counters["bms_ingest_reports_total"] > 0:
			return fmt.Errorf("%s ingested reports but took no frames over streams — they reached it some other way", p.name)
		case r.o.fsync == "batch" && groups.Sum != int64(appended.Count):
			return fmt.Errorf("%s acknowledged %d appends but its %d fsyncs covered %d frames — a frame was acknowledged unsynced, or synced twice", p.name, appended.Count, groups.Count, groups.Sum)
		case snap.Counters["wal_append_errors_total"] != 0:
			return fmt.Errorf("%s failed %.0f WAL appends", p.name, snap.Counters["wal_append_errors_total"])
		case snap.Counters["bms_lease_stale_admits_total"] != 0:
			return fmt.Errorf("%s admitted %.0f stale-epoch writes past the fence — zombie writes leaked", p.name, snap.Counters["bms_lease_stale_admits_total"])
		case r.pair != nil && snap.Counters["bms_lease_claims_total"] != claims:
			return fmt.Errorf("%s granted %.0f lease claims, want exactly %.0f (1 bootstrap + %d takeovers) — a takeover double-claimed or never landed",
				p.name, snap.Counters["bms_lease_claims_total"], claims, len(r.o.schedule))
		case r.pair != nil:
			continue
		}
		dials := legCounter(end["loadgen-gateway"], "fleet_stream_dials_total", p)
		resets := legCounter(end["loadgen-gateway"], "fleet_stream_resets_total", p)
		kills := float64(p.kills.Load())
		switch {
		case kills > 0 && (resets < kills || dials < kills+1):
			return fmt.Errorf("%s was killed %.0f time(s) but the gateway counted %.0f stream resets and %.0f dials — a kill went unnoticed on the stream", p.name, kills, resets, dials)
		case kills == 0 && resets != 0:
			return fmt.Errorf("%s was never killed, yet %.0f of its streams were reset", p.name, resets)
		}
	}
	switch {
	case frames == 0:
		return errors.New("no shard took a frame over a stream — the leg never ran")
	case r.o.fsync == "batch" && appends == 0:
		return errors.New("no shard appended to its WAL — the assertion was vacuous")
	case r.pair != nil:
		fmt.Fprintln(r.out, "stream assertions: every shard took its frames over streams from the gateway pair, whose own registries count the legs' resets and dials")
	default:
		fmt.Fprintf(r.out, "stream assertions: every shard took its frames over streams; %d kill(s), each cost its shard's gateway leg at least a reset and a redial; no other stream was reset\n", len(r.o.schedule))
	}
	if r.o.fsync == "batch" {
		fmt.Fprintf(r.out, "wal assertions: %d acknowledged appends, each covered by exactly one of %d fsyncs; 0 append errors\n", appends, fsyncs)
	}
	if r.pair != nil {
		fmt.Fprintf(r.out, "telemetry assertions: every shard granted exactly %.0f lease claims (1 bootstrap + %d takeovers) and admitted 0 stale-epoch writes\n",
			claims, len(r.o.schedule))
	}
	return nil
}

// checkFailover holds the gateway drill to what the devices saw: their
// uplink failed over, and under -wire binary their pre-split uploads grew
// in every phase — before the first kill, between kills, after the last —
// so the verbatim forward crossed every part of the drill. It returns the
// success line.
func (r *rig) checkFailover(kills int) (string, error) {
	redirects, rotations := r.uplink.Stats()
	if redirects+rotations == 0 {
		return "", errors.New("the uplink never failed over — the drill was vacuous")
	}
	if r.o.codec == transport.CodecBinary {
		at := r.dash.counter(presplitBatches)
		if len(at) != kills+2 {
			return "", fmt.Errorf("-wire binary: %d of the drill's %d phase boundaries were scraped; the pre-split phases cannot be told apart", len(at), kills+2)
		}
		for i := 1; i < len(at); i++ {
			if at[i] <= at[i-1] {
				return "", fmt.Errorf("-wire binary: no upload was pre-split in phase %d of %d (the devices' count at each kill, then at the end: %v) — the verbatim forward never crossed that part of the drill",
					i, len(at)-1, at[1:])
			}
		}
		fmt.Fprintf(r.out, "pre-split assertions: the devices' pre-split upload count grew in every phase — before the first kill, between kills, after the last (at each kill, then at the end: %v)\n", at[1:])
	}
	epoch, holder, err := r.lease()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("gateway-failover verified: %d active-gateway kill(s), %d leader-hint redirect(s) + %d rotation(s), leadership settled at epoch %d (%s), fleet state byte-identical to the clean ground truth",
		kills, redirects, rotations, epoch, holder), nil
}

// drain stops every process, the gateway pair first, and holds each
// shard to its drain order: the log must say the streams were stopped —
// 0 left open — before it says the durable state was compacted, or an
// acknowledgement could have raced the final snapshot. What the drain
// leaves on disk is one log and the one snapshot it was compacted into.
func (r *rig) drain() error {
	r.stop()
	for _, p := range r.shards {
		out := p.cur.Load().log.String() // complete: stop waited for the exit
		stopped := strings.Index(out, "streams stopped between frames: 0 open stream(s)")
		compacted := strings.Index(out, "durable state compacted")
		if stopped < 0 || compacted < 0 || stopped > compacted {
			return fmt.Errorf("%s did not drain in order (streams stopped at byte %d of its log, state compacted at %d)", p.name, stopped, compacted)
		}
		// bmsd -shards 1 keeps its one shard's WAL under <data-dir>/shard-0.
		entries, err := os.ReadDir(filepath.Join(r.root, p.name, "shard-0"))
		if err != nil {
			return fmt.Errorf("%s data directory: %w", p.name, err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		// ReadDir sorts by name: the snapshot, then the log.
		if len(names) != 2 || !strings.HasPrefix(names[0], "snapshot-") || filepath.Ext(names[0]) != ".snap" || names[1] != "wal.log" {
			return fmt.Errorf("%s drained to %q, want exactly one snapshot-*.snap and wal.log", p.name, names)
		}
	}
	fmt.Fprintln(r.out, "drain assertions: every shard stopped its streams (0 left open) before compacting its durable state into one snapshot beside one wal.log")
	return nil
}

// stop stops every process the rig runs, the gateway pair first.
func (r *rig) stop() {
	for _, p := range slices.Concat(r.pair, r.shards) {
		p.stop()
	}
}

// close releases everything the rig holds and removes a data root it made.
func (r *rig) close() {
	r.stop()
	if r.fleet != nil {
		r.fleet.Close()
	}
	if r.tempRoot {
		os.RemoveAll(r.root)
	}
}

// killShard is the shard drill's fire: it SIGKILLs one shard — rotating
// through the pool, so repeated kills land on distinct processes — and
// restarts it over its data directory; with -restart-gateway it then
// discards loadgen's gateway and builds a fresh one from the shards'
// device sets, proving a gateway restart mid-run is invisible too.
func (r *rig) killShard(n int, t float64) error {
	p := r.shards[n%len(r.shards)]
	fmt.Fprintf(r.out, "crash: t=%.0fs SIGKILL %s (restart over %s)\n", t, p.name, filepath.Join(r.root, p.name))
	// The phase closes once the shard is back: a dead one has no
	// telemetry to scrape.
	defer r.dash.mark(fmt.Sprintf("after shard kill %d", n+1))
	met := r.fleet.Spec.Metrics
	resets := legCounter(met.TakeSnapshot(), "fleet_stream_resets_total", p)
	if err := p.kill(); err != nil {
		return err
	}
	if err := p.start(); err != nil {
		return err
	}
	if err := p.waitHealthy(); err != nil || !r.o.restartGateway {
		return err
	}
	// The gateway restart belongs after the old gateway has run into the
	// dead shard on a stream it held — otherwise the drill would swap out
	// the very streams the kill severed before anything touched them, and
	// the reset path would go unexercised.
	for deadline := time.Now().Add(10 * time.Second); legCounter(met.TakeSnapshot(), "fleet_stream_resets_total", p) == resets; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("no stream to %s was reset within 10s of its SIGKILL — no traffic ran into the kill; pace the run with -rate", p.name)
		}
	}
	gw, err := r.fleet.NewGateway()
	if err != nil {
		return err
	}
	devices, err := gw.RebuildRegistry()
	if err != nil {
		return fmt.Errorf("registry rebuild: %w", err)
	}
	fmt.Fprintf(r.out, "crash: gateway restarted, registry rebuilt from shards (%d devices)\n", devices)
	r.gw.Store(gw)
	return nil
}

// killActive is the gateway drill's fire: it SIGKILLs whichever gateway
// the shards say leads, with no drain — the standby must notice the
// silence and claim the next epoch on its own — and, once leadership has
// moved, respawns the dead one as the new standby for the next kill.
func (r *rig) killActive(n int, t float64) error {
	fmt.Fprintf(r.out, "gateway-kill: t=%.0fs SIGKILL the active gateway\n", t)
	epoch, holder, err := r.lease()
	if err != nil {
		return fmt.Errorf("finding the active: %w", err)
	}
	i := slices.IndexFunc(r.pair, func(g *proc) bool { return g.url() == holder })
	if i < 0 {
		return fmt.Errorf("lease holder %q is neither gateway of the pair", holder)
	}
	victim, survivor := r.pair[i], r.pair[1-i]
	if err := victim.kill(); err != nil {
		return err
	}
	// Only now: a scrape before the kill would let an unpaced crowd run
	// past it. No upload is counted against a dead gateway, so the phase
	// boundary is the kill itself.
	r.dash.mark(fmt.Sprintf("at gateway kill %d", n+1))
	if err := r.waitLeader(survivor, epoch, 30*time.Second); err != nil {
		return fmt.Errorf("%s never took over from the killed %s: %w", survivor.name, victim.name, err)
	}
	fmt.Fprintf(r.out, "gateway-kill: %s took over (epoch advanced past %d); respawning %s as standby\n",
		survivor.name, epoch, victim.name)
	if err := victim.start("-standby"); err != nil {
		return err
	}
	return victim.waitHealthy()
}

// lease asks one shard who holds the gateway lease. Any shard will do:
// the gateway drill kills no shard, so every claim reaches all of them.
func (r *rig) lease() (epoch uint64, holder string, err error) {
	payload, err := transport.GetJSON(scrapeClient, r.shards[0].url()+"/api/v1/lease", transport.RetryPolicy{})
	if err != nil {
		return 0, "", err
	}
	var view struct {
		Granted uint64 `json:"granted"`
		Holder  string `json:"holder"`
	}
	err = json.Unmarshal(payload, &view)
	return view.Granted, view.Holder, err
}

// waitLeader polls the shards until g holds a lease above minEpoch: a
// takeover, or the bootstrap claim, has completed.
func (r *rig) waitLeader(g *proc, minEpoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		epoch, holder, err := r.lease()
		if err == nil && holder == g.url() && epoch > minEpoch {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("lease is %d/%q, want holder %q above epoch %d", epoch, holder, g.url(), minEpoch)
			}
			return err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// newest returns the latest report time in reports (0 for none).
func newest(reports []transport.Report) float64 {
	at := 0.0
	for i := range reports {
		at = max(at, reports[i].AtSeconds)
	}
	return at
}

package main

// Crash-schedule injection: loadgen spawns each shard as a real bmsd
// subprocess with a write-ahead log, SIGKILLs shards at scheduled
// trace times mid-run, restarts them over the same data directory, and
// finally asserts the recovered fleet's federated views are
// byte-identical to a clean single server fed the same streams exactly
// once. This is the end-to-end proof behind the WAL: kill -9 loses
// nothing that reached the log, and (Epoch, Seq) dedup makes the
// uplinks' retransmissions across the outage exactly-once.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/transport"
)

// parseKillSchedule parses "-kill t1,t2,..." into sorted trace times
// (seconds on the reports' own clock).
func parseKillSchedule(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		t, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-kill %q: %w", s, err)
		}
		if t < 0 {
			return nil, fmt.Errorf("-kill time %v is negative", t)
		}
		out = append(out, t)
	}
	sort.Float64s(out)
	return out, nil
}

// shardProc is one bmsd subprocess and everything needed to respawn it.
type shardProc struct {
	name string
	addr string
	dir  string

	mu    sync.Mutex
	cmd   *exec.Cmd
	kills int           // SIGKILLs this shard has taken
	log   *bytes.Buffer // the current incarnation's stderr; read only after cmd.Wait, which ends its one writer
}

// crashFleet is the subprocess pool plus the (swappable) gateway over
// it. The gateway is held behind an atomic pointer so -restart-gateway
// can discard it mid-run and rebuild a fresh one — the gateway persists
// nothing, so a new object plus RebuildRegistry is exactly a process
// restart.
type crashFleet struct {
	plan     string
	fsync    string
	bmsdPath string
	procs    []*shardProc
	// clients is the harness's fleet over the subprocesses' URLs; it
	// builds every gateway and verifies the end state. The base URL is
	// the ring identity and restarted shards rebind the same port, so
	// routing is stable across every rebuild — and no health probe runs,
	// so a killed shard's reports retransmit into its recovered WAL state
	// instead of rebuilding, lossily, on a stand-in.
	clients *scenario.Fleet
	gw      atomic.Pointer[fleet.Gateway]
	// met is the registry every gateway built over the pool reports into:
	// a rebuilt gateway keeps counting on the same series, so the stream
	// counters span the whole run.
	met *obs.Metrics

	// clock is the crash scheduler's view of run progress: the max
	// AtSeconds of any report that has entered the funnel.
	clockMu sync.Mutex
	clock   float64

	kills atomic.Int64

	// onKill, when set, closes a dashboard phase after each recovered
	// kill (see dashboard.go).
	onKill func(label string)
}

// startCrashFleet spawns one single-shard durable bmsd per shard,
// waits for each to answer health, and has the harness front them with
// a gateway of HTTPShards, trained and model-distributed.
func startCrashFleet(b *building.Building, o options) (*crashFleet, error) {
	if o.bmsdPath == "" {
		return nil, fmt.Errorf("-kill needs -bmsd pointing at a built bmsd binary (make crashtest builds one)")
	}
	dataRoot := o.dataRoot
	if dataRoot == "" {
		dir, err := os.MkdirTemp("", "loadgen-crash-*")
		if err != nil {
			return nil, err
		}
		dataRoot = dir
	}
	c := &crashFleet{plan: o.plan, fsync: o.fsync, bmsdPath: o.bmsdPath, met: obs.New()}
	var urls []string
	for i := 0; i < o.shards; i++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		p := &shardProc{
			name: fmt.Sprintf("shard-%d", i),
			addr: fmt.Sprintf("127.0.0.1:%d", port),
			dir:  fmt.Sprintf("%s/shard-%d", dataRoot, i),
		}
		if err := c.spawn(p); err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, p)
		urls = append(urls, "http://"+p.addr)
	}
	for _, p := range c.procs {
		if err := waitHealthy(p.addr, 15*time.Second); err != nil {
			c.stop()
			return nil, fmt.Errorf("%s never became healthy: %w", p.name, err)
		}
	}
	var err error
	if c.clients, err = scenario.Build(b, scenario.Spec{ShardURLs: urls, Metrics: c.met}, o.seed); err != nil {
		c.stop()
		return nil, err
	}
	c.gw.Store(c.clients.Gateways[0])
	return c, nil
}

// spawn starts (or restarts) one bmsd over its data directory.
func (c *crashFleet) spawn(p *shardProc) error {
	cmd := exec.Command(c.bmsdPath,
		"-addr", p.addr,
		"-plan", c.plan,
		"-shards", "1",
		"-debounce", "2",
		"-retain", "1000",
		"-data-dir", p.dir,
		"-fsync", c.fsync,
	)
	captured := new(bytes.Buffer)
	cmd.Stdout = os.Stderr
	cmd.Stderr = io.MultiWriter(os.Stderr, captured)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn %s: %w", p.name, err)
	}
	p.mu.Lock()
	p.cmd, p.log = cmd, captured
	p.mu.Unlock()
	return nil
}

// kill SIGKILLs the shard — no drain, no final snapshot; recovery must
// come from the WAL alone — then restarts it and waits for health.
func (c *crashFleet) kill(p *shardProc) error {
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("kill %s: %w", p.name, err)
	}
	_ = cmd.Wait()
	c.kills.Add(1)
	p.mu.Lock()
	p.kills++
	p.mu.Unlock()
	if err := c.spawn(p); err != nil {
		return err
	}
	return waitHealthy(p.addr, 15*time.Second)
}

// stop terminates every subprocess: SIGTERM first (a graceful bmsd
// drain compacts the WAL), SIGKILL after a grace period.
func (c *crashFleet) stop() {
	var wg sync.WaitGroup
	for _, p := range c.procs {
		p.mu.Lock()
		cmd := p.cmd
		p.mu.Unlock()
		if cmd == nil || cmd.Process == nil {
			continue
		}
		wg.Add(1)
		go func(cmd *exec.Cmd) {
			defer wg.Done()
			_ = cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan struct{})
			go func() { _ = cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				_ = cmd.Process.Kill()
				<-done
			}
		}(cmd)
	}
	wg.Wait()
}

// drain stops the pool gracefully and holds every shard to its drain
// order: the log must say the streams were stopped — 0 left open — before
// it says the durable state was compacted, or an acknowledgement could
// have raced the final snapshot. What the drain leaves on disk is one
// log and the one snapshot it was compacted into, nothing else.
func (c *crashFleet) drain() error {
	c.stop()
	for _, p := range c.procs {
		p.mu.Lock()
		out := p.log.String()
		p.mu.Unlock()
		stopped := strings.Index(out, "streams stopped between frames: 0 open stream(s)")
		compacted := strings.Index(out, "durable state compacted")
		if stopped < 0 || compacted < 0 || stopped > compacted {
			return fmt.Errorf("%s did not drain in order (streams stopped at byte %d of its log, state compacted at %d)", p.name, stopped, compacted)
		}
		// bmsd -shards 1 keeps its one shard's WAL under <data-dir>/shard-0.
		entries, err := os.ReadDir(filepath.Join(p.dir, "shard-0"))
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
	fmt.Printf("drain assertions: every shard stopped its streams (0 left open) before compacting its durable state into one snapshot beside one wal.log\n")
	return nil
}

// assertWALTelemetry holds each shard's log to the group-commit contract
// from its own /api/v1/telemetry, once the fleet is quiet: under -fsync
// batch every acknowledged append was covered by exactly one completed
// fsync — the group sizes sum to the append count, whoever led — and no
// append failed. A restarted shard counts from its restart.
func (c *crashFleet) assertWALTelemetry() error {
	if c.fsync != "batch" {
		return nil
	}
	var appends, fsyncs uint64
	for _, p := range c.procs {
		snap, err := httpSource("http://" + p.addr)()
		if err != nil {
			return fmt.Errorf("%s telemetry: %w", p.name, err)
		}
		groups, appended := snap.Histograms["wal_group_commit_frames"], snap.Histograms["wal_append_seconds"]
		if groups.Sum != int64(appended.Count) {
			return fmt.Errorf("%s acknowledged %d appends but its %d fsyncs covered %d frames — a frame was acknowledged unsynced, or synced twice", p.name, appended.Count, groups.Count, groups.Sum)
		}
		if failed := snap.Counters["wal_append_errors_total"]; failed != 0 {
			return fmt.Errorf("%s failed %.0f WAL appends", p.name, failed)
		}
		appends, fsyncs = appends+appended.Count, fsyncs+groups.Count
	}
	if appends == 0 {
		return fmt.Errorf("no shard appended to its WAL — the assertion was vacuous")
	}
	fmt.Printf("wal assertions: %d acknowledged appends, each covered by exactly one of %d fsyncs; 0 append errors\n", appends, fsyncs)
	return nil
}

// assertStreamTelemetry holds the gateway → shard streams to their story,
// from the gateway's registry and each shard's /api/v1/telemetry. A clean
// run resets no stream; every SIGKILL of a shard costs the gateway at
// least one reset and one redial of that shard. Every delivery is a frame
// on a stream, whatever the devices speak, so both drills assert this.
func (c *crashFleet) assertStreamTelemetry() error {
	for _, p := range c.procs {
		snap, err := httpSource("http://" + p.addr)()
		if err != nil {
			return fmt.Errorf("%s telemetry: %w", p.name, err)
		}
		frames := snap.Counters["bms_stream_frames_total"]
		dials, resets := c.streamCounter("fleet_stream_dials_total", p), c.streamCounter("fleet_stream_resets_total", p)
		p.mu.Lock()
		kills := float64(p.kills)
		p.mu.Unlock()
		switch {
		case frames == 0 || dials == 0:
			return fmt.Errorf("%s took %.0f frames over %.0f streams — the leg never ran", p.name, frames, dials)
		case resets < kills || dials < kills+1:
			return fmt.Errorf("%s was killed %.0f time(s) but the gateway counted %.0f stream resets and %.0f dials — a kill went unnoticed on the stream", p.name, kills, resets, dials)
		case kills == 0 && resets != 0:
			return fmt.Errorf("%s was never killed, yet %.0f of its streams were reset", p.name, resets)
		}
	}
	fmt.Printf("stream assertions: every shard took its frames over streams; %d kill(s), each cost its shard's gateway leg at least a reset and a redial; no other stream was reset\n", c.kills.Load())
	return nil
}

// streamCounter reads one of the gateway's per-shard stream counters.
func (c *crashFleet) streamCounter(family string, p *shardProc) float64 {
	return c.met.TakeSnapshot().Counters[fmt.Sprintf("%s{shard=%q}", family, "http://"+p.addr)]
}

// newest returns the latest report time in reports (0 for none).
func newest(reports []transport.Report) float64 {
	at := 0.0
	for i := range reports {
		at = max(at, reports[i].AtSeconds)
	}
	return at
}

// advanceClock folds a batch's report times into the scheduler clock.
func (c *crashFleet) advanceClock(reports []transport.Report) {
	c.clockMu.Lock()
	c.clock = max(c.clock, newest(reports))
	c.clockMu.Unlock()
}

func (c *crashFleet) now() float64 {
	c.clockMu.Lock()
	defer c.clockMu.Unlock()
	return c.clock
}

// runKiller fires a kill schedule: when the funnel's trace clock passes
// each scheduled time it calls fire (killShard's, or the gateway
// drill's killActive), which counts the kill in c.kills. Returns when
// the schedule is exhausted, a kill fails, or stop closes.
func (c *crashFleet) runKiller(schedule []float64, fire func(n int, t float64) error, stop <-chan struct{}) error {
	for n, t := range schedule {
		for c.now() < t {
			select {
			case <-stop:
				return nil
			case <-time.After(10 * time.Millisecond):
			}
		}
		if err := fire(n, t); err != nil {
			return err
		}
	}
	return nil
}

// killShard is the shard drill's fire: it SIGKILLs one shard (rotating
// through the pool so repeated kills spread over distinct processes)
// and — with restartGateway — also discards and rebuilds the gateway,
// proving a gateway restart mid-run is invisible too.
func (c *crashFleet) killShard(restartGateway bool, stop <-chan struct{}) func(n int, t float64) error {
	return func(n int, t float64) error {
		p := c.procs[n%len(c.procs)]
		fmt.Printf("crash: t=%.0fs SIGKILL %s (restart over %s)\n", t, p.name, p.dir)
		resets := c.streamCounter("fleet_stream_resets_total", p)
		if err := c.kill(p); err != nil {
			return err
		}
		if restartGateway {
			// The gateway restart belongs after the old gateway has run into
			// the dead shard on a stream it held — otherwise the drill would
			// swap out the very streams the kill severed before anything
			// touched them, and the reset path would go unexercised.
			deadline := time.Now().Add(10 * time.Second)
			for c.streamCounter("fleet_stream_resets_total", p) == resets {
				if time.Now().After(deadline) {
					return fmt.Errorf("no stream to %s was reset within 10s of its SIGKILL — no traffic ran into the kill; pace the run with -rate", p.name)
				}
				select {
				case <-stop:
					return nil
				case <-time.After(5 * time.Millisecond):
				}
			}
			gw, err := c.clients.NewGateway()
			if err != nil {
				return err
			}
			devices, err := gw.RebuildRegistry()
			if err != nil {
				return fmt.Errorf("registry rebuild: %w", err)
			}
			fmt.Printf("crash: gateway restarted, registry rebuilt from shards (%d devices)\n", devices)
			c.gw.Store(gw)
		}
		if c.onKill != nil {
			c.onKill(fmt.Sprintf("after shard kill %d", n+1))
		}
		return nil
	}
}

// clockUplink is the sink of the kill drills: it advances the
// scheduler's trace clock, then sends through whatever next returns
// now.
type clockUplink struct {
	c    *crashFleet
	next func() scenario.Sink
}

// uplink sends through whatever gateway is current, so a mid-run
// gateway swap is picked up by the very next exchange.
func (c *crashFleet) uplink() clockUplink {
	return clockUplink{c: c, next: func() scenario.Sink { return fleet.GatewayUplink{Gateway: c.gw.Load()} }}
}

func (u clockUplink) Name() string { return u.next().Name() }

func (u clockUplink) Send(r transport.Report) error {
	u.c.advanceClock([]transport.Report{r})
	return u.next().Send(r)
}

func (u clockUplink) SendBatch(reports []transport.Report) error {
	u.c.advanceClock(reports)
	return u.next().SendBatch(reports)
}

// freePort reserves an ephemeral port long enough to read its number.
// The tiny close-to-bind race is acceptable for a test harness.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// waitHealthy polls the shard's health endpoint until it answers 200.
func waitHealthy(addr string, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get("http://" + addr + "/api/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("health status %d", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

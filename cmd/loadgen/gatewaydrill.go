package main

// Gateway-failover drill: loadgen spawns the shard pool as bmsd
// subprocesses (reusing the crash-fleet machinery), fronts them with
// TWO more bmsd subprocesses running -shard-urls gateway-HA mode — an
// active and a warm -standby — and drives the trace through one
// transport.HTTPUplink aimed at the pair. At each scheduled trace
// time the CURRENT active (found by asking the shards who holds the
// lease) is SIGKILLed with no drain; the standby notices the silence,
// claims the next epoch on the shard quorum, and takes over, while the
// dead gateway is respawned as the new standby. The uplink rides the
// takeover via 409 leader hints and target rotation, retransmitting
// whole batches, and the run ends with the same byte-identical
// ground-truth assertion as every other drill: leadership moved, a
// zombie's partial work was fenced, and nothing landed twice.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"occusim/internal/building"
	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/transport"
)

// drillLeaseTTL is deliberately short so a takeover completes well
// inside the uplink's retransmission budget.
const drillLeaseTTL = 500 * time.Millisecond

// gatewayProc is one bmsd -shard-urls subprocess of the HA pair.
type gatewayProc struct {
	name string
	addr string
	self string // advertised URL ("http://" + addr): the lease holder identity

	mu  sync.Mutex
	cmd *exec.Cmd
}

// gatewayDrill is the full stack for -kill-gateway runs: the shard
// subprocess pool (with its in-process verification gateway) plus the
// active/standby gateway subprocess pair.
type gatewayDrill struct {
	fleet     *crashFleet // shard pool, trace clock, kill count, and the read-side gateway
	gws       [2]*gatewayProc
	shardURLs string

	// client is the devices' registry; presplitAt is its count of pre-split
	// uploads at every SIGKILL, then at the end of the run.
	client     *obs.Metrics
	presplitAt []float64
}

// closePhase ends a phase of the drill — before the first kill, between
// kills, after the last.
func (d *gatewayDrill) closePhase() {
	d.presplitAt = append(d.presplitAt, d.client.TakeSnapshot().Counters[`transport_wire_batches_total{codec="presplit"}`])
}

// startGatewayDrill brings up shards, trains and distributes the crowd
// model (through the in-process gateway, before any lease exists, so
// the writes are unfenced), spawns the HA pair, and waits until the
// shards agree the active holds epoch 1.
func startGatewayDrill(b *building.Building, o options) (*gatewayDrill, error) {
	c, err := startCrashFleet(b, o)
	if err != nil {
		return nil, err
	}
	d := &gatewayDrill{fleet: c}
	for i, p := range c.procs {
		if i > 0 {
			d.shardURLs += ","
		}
		d.shardURLs += "http://" + p.addr
	}
	for i, name := range []string{"gateway-A", "gateway-B"} {
		port, err := freePort()
		if err != nil {
			d.stop()
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		d.gws[i] = &gatewayProc{name: name, addr: addr, self: "http://" + addr}
	}
	if err := d.spawnGateway(d.gws[0], d.gws[1], false); err != nil {
		d.stop()
		return nil, err
	}
	if err := d.spawnGateway(d.gws[1], d.gws[0], true); err != nil {
		d.stop()
		return nil, err
	}
	for _, g := range d.gws {
		if err := waitHealthy(g.addr, 15*time.Second); err != nil {
			d.stop()
			return nil, fmt.Errorf("%s never became healthy: %w", g.name, err)
		}
	}
	if err := d.waitLeader(d.gws[0].self, 0, 15*time.Second); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s never claimed leadership: %w", d.gws[0].name, err)
	}
	return d, nil
}

// spawnGateway starts (or restarts) one gateway of the pair.
func (d *gatewayDrill) spawnGateway(g, peer *gatewayProc, standby bool) error {
	args := []string{
		"-addr", g.addr,
		"-shard-urls", d.shardURLs,
		"-self", g.self,
		"-peer", peer.self,
		"-lease-ttl", drillLeaseTTL.String(),
	}
	if standby {
		args = append(args, "-standby")
	}
	cmd := exec.Command(d.fleet.bmsdPath, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn %s: %w", g.name, err)
	}
	g.mu.Lock()
	g.cmd = cmd
	g.mu.Unlock()
	return nil
}

// leaseView asks one shard who holds the gateway lease. Any shard
// works: no shards are killed in this drill, so every claim reaches
// all of them.
func (d *gatewayDrill) leaseView() (epoch uint64, holder string, err error) {
	client := &http.Client{Timeout: time.Second}
	payload, err := transport.GetJSON(client,
		"http://"+d.fleet.procs[0].addr+"/api/v1/lease", transport.RetryPolicy{})
	if err != nil {
		return 0, "", err
	}
	var view struct {
		Granted uint64 `json:"granted"`
		Holder  string `json:"holder"`
	}
	if err := json.Unmarshal(payload, &view); err != nil {
		return 0, "", err
	}
	return view.Granted, view.Holder, nil
}

// waitLeader polls the shards until `want` holds a lease above
// minEpoch — i.e. a takeover (or the bootstrap claim) completed.
func (d *gatewayDrill) waitLeader(want string, minEpoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		epoch, holder, err := d.leaseView()
		if err == nil && holder == want && epoch > minEpoch {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("lease is %d/%q, want holder %q above epoch %d", epoch, holder, want, minEpoch)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// killActive is the gateway drill's fire (see crashFleet.runKiller): it
// SIGKILLs whichever gateway the shards say is leading, no drain — the
// standby must detect the silence and claim the next epoch on its own.
// Once leadership has moved, the dead process is respawned as the new
// standby, restoring the pair for the next kill.
func (d *gatewayDrill) killActive(n int, t float64) error {
	fmt.Printf("gateway-kill: t=%.0fs SIGKILL the active gateway\n", t)
	epoch, holder, err := d.leaseView()
	if err != nil {
		return fmt.Errorf("finding the active: %w", err)
	}
	var victim, survivor *gatewayProc
	for i, g := range d.gws {
		if g.self == holder {
			victim, survivor = g, d.gws[1-i]
		}
	}
	if victim == nil {
		return fmt.Errorf("lease holder %q is neither gateway of the pair", holder)
	}
	victim.mu.Lock()
	cmd := victim.cmd
	victim.mu.Unlock()
	d.closePhase()
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("kill %s: %w", victim.name, err)
	}
	_ = cmd.Wait()
	d.fleet.kills.Add(1)
	if err := d.waitLeader(survivor.self, epoch, 30*time.Second); err != nil {
		return fmt.Errorf("%s never took over from the killed %s: %w", survivor.name, victim.name, err)
	}
	fmt.Printf("gateway-kill: %s took over (epoch advanced past %d); respawning %s as standby\n",
		survivor.name, epoch, victim.name)
	if err := d.spawnGateway(victim, survivor, true); err != nil {
		return err
	}
	if err := waitHealthy(victim.addr, 15*time.Second); err != nil {
		return err
	}
	if d.fleet.onKill != nil {
		d.fleet.onKill(fmt.Sprintf("after gateway kill %d", n+1))
	}
	return nil
}

// verify ends a drill whose schedule has run: the failover story from
// the shards' telemetry, then the same ground-truth assertion as every
// other drill, read through the in-process gateway.
func (d *gatewayDrill) verify(failover *transport.HTTPUplink, streams [][]transport.Report) error {
	kills, cgw := d.fleet.kills.Load(), d.fleet.gw.Load()
	redirects, rotations := failover.Stats()
	if redirects+rotations == 0 {
		return fmt.Errorf("the uplink never failed over — the drill was vacuous")
	}
	if d.closePhase(); failover.Codec == transport.CodecBinary {
		prev := 0.0
		for i, n := range d.presplitAt {
			if n <= prev {
				return fmt.Errorf("-wire binary: no upload was pre-split in phase %d of %d (the devices' count at each kill, then at the end: %v) — the verbatim forward never crossed that part of the drill",
					i+1, len(d.presplitAt), d.presplitAt)
			}
			prev = n
		}
		fmt.Printf("pre-split assertions: the devices' pre-split upload count grew in every phase — before the first kill, between kills, after the last (at each kill, then at the end: %v)\n", d.presplitAt)
	}
	if err := assertDrillTelemetry(d, int(kills)); err != nil {
		return err
	}
	epoch, holder, err := d.leaseView()
	if err != nil {
		return err
	}
	// Read-side verification: a fresh registry rebuild over the
	// shards, exactly what a newly promoted gateway does at boot.
	n, err := cgw.RebuildRegistry()
	if err != nil {
		return fmt.Errorf("registry rebuild: %w", err)
	}
	fmt.Printf("verification gateway rebuilt its registry from the shards (%d devices)\n", n)
	printRollup(cgw)
	if err := d.fleet.clients.Verify(cgw, scenario.Exact, streams); err != nil {
		return err
	}
	fmt.Printf("gateway-failover verified: %d active-gateway kill(s), %d leader-hint redirect(s) + %d rotation(s), leadership settled at epoch %d (%s), fleet state byte-identical to the clean ground truth\n",
		kills, redirects, rotations, epoch, holder)
	return nil
}

// stop tears the whole stack down: gateways first (SIGTERM, then
// SIGKILL after a grace period), then the shard pool.
func (d *gatewayDrill) stop() {
	for _, g := range d.gws {
		if g == nil {
			continue
		}
		g.mu.Lock()
		cmd := g.cmd
		g.mu.Unlock()
		if cmd == nil || cmd.Process == nil {
			continue
		}
		_ = cmd.Process.Signal(syscall.SIGTERM)
		doneCh := make(chan struct{})
		go func() { _ = cmd.Wait(); close(doneCh) }()
		select {
		case <-doneCh:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-doneCh
		}
	}
	d.fleet.stop()
}

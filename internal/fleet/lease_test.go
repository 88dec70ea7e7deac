package fleet_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// twinGateways builds two gateways over ONE set of shard servers, each
// with its OWN shard clients — the epoch stamp is per-client identity
// in the fencing protocol, so an active/standby pair must never share
// clients.
func twinGateways(t *testing.T, b *building.Building, n int) (*fleet.LocalPool, *fleet.Gateway, *fleet.Gateway) {
	t.Helper()
	pool, err := fleet.OpenLocalPool(b, n, 2, 1000, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	shardsB := make([]fleet.Shard, len(pool.Servers))
	for i, srv := range pool.Servers {
		ls, err := fleet.NewLocalShard(fmt.Sprintf("shard-%d", i), srv)
		if err != nil {
			t.Fatal(err)
		}
		shardsB[i] = ls
	}
	gwA, err := fleet.New(pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gwB, err := fleet.New(shardsB, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return pool, gwA, gwB
}

func controller(t *testing.T, gw *fleet.Gateway, self string) *fleet.LeaseController {
	t.Helper()
	ctl, err := fleet.NewLeaseController(gw, fleet.LeaseConfig{
		Self:  self,
		Probe: func() error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func TestLeaseClaimRenewDepose(t *testing.T) {
	b := building.PaperHouse()
	pool, gwA, gwB := twinGateways(t, b, 3)
	ctlA := controller(t, gwA, "http://gwA")
	ctlB := controller(t, gwB, "http://gwB")

	if err := ctlA.Claim(); err != nil {
		t.Fatalf("bootstrap claim: %v", err)
	}
	if !ctlA.Active() || ctlA.Epoch() != 1 {
		t.Fatalf("A active=%v epoch=%d", ctlA.Active(), ctlA.Epoch())
	}
	if gwA.Epoch() != 1 {
		t.Fatalf("A gateway stamp = %d", gwA.Epoch())
	}
	for i, srv := range pool.Servers {
		if epoch, holder := srv.GrantedLease(); epoch != 1 || holder != "http://gwA" {
			t.Fatalf("shard-%d grant = %d/%q", i, epoch, holder)
		}
	}
	if err := ctlA.Renew(); err != nil {
		t.Fatalf("renew while leading: %v", err)
	}

	// B outbids: its epoch-1 bid loses to A's grant, so it re-bids 2
	// within the same Claim call and wins.
	if err := ctlB.Claim(); err != nil {
		t.Fatalf("takeover claim: %v", err)
	}
	if !ctlB.Active() || ctlB.Epoch() != 2 {
		t.Fatalf("B active=%v epoch=%d", ctlB.Active(), ctlB.Epoch())
	}

	// A's next renewal loses quorum and steps it down, learning where
	// leadership went.
	if err := ctlA.Renew(); err == nil {
		t.Fatal("deposed renewal must fail")
	}
	if ctlA.Active() {
		t.Fatal("A still active after losing its lease")
	}
	if hint := ctlA.LeaderHint(); hint != "http://gwB" {
		t.Fatalf("A leader hint = %q", hint)
	}

	// And A's gateway is a zombie shard-side: every write fenced.
	stream := synthStream(b, 2, 2, 5)
	stampStream(stream, 1)
	if _, err := gwA.IngestBatch(stream); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("zombie batch: err=%v", err)
	}
	if _, err := gwB.IngestBatch(stream); err != nil {
		t.Fatalf("leader batch: %v", err)
	}
}

func TestLeaseObserveStaleDeposesZombie(t *testing.T) {
	b := building.PaperHouse()
	_, gwA, gwB := twinGateways(t, b, 3)
	ctlA := controller(t, gwA, "http://gwA")
	ctlB := controller(t, gwB, "http://gwB")

	if err := ctlA.Claim(); err != nil {
		t.Fatal(err)
	}
	if err := ctlB.Claim(); err != nil {
		t.Fatal(err)
	}

	// A has not renewed yet — it still believes it leads. Its first
	// fenced write is how it finds out.
	if !ctlA.Active() {
		t.Fatal("setup: A must still believe it leads")
	}
	stream := synthStream(b, 1, 1, 7)
	stampStream(stream, 1)
	_, err := gwA.Ingest(stream[0])
	if !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("zombie ingest: err=%v", err)
	}
	ctlA.ObserveStale(err)
	if ctlA.Active() {
		t.Fatal("A still active after a fenced write")
	}
	if hint := ctlA.LeaderHint(); hint != "http://gwB" {
		t.Fatalf("hint after fencing = %q", hint)
	}
	// Non-stale errors must not depose.
	ctlB.ObserveStale(fmt.Errorf("some shard hiccup"))
	if !ctlB.Active() {
		t.Fatal("B deposed by an unrelated error")
	}
}

// deafShard loses its lease arbiter (the claim RPC fails) but keeps
// serving writes — a shard behind a partial partition.
type deafShard struct{ fleet.Shard }

func (d deafShard) Claim(epoch uint64, leader string) (uint64, string, error) {
	return 0, "", fmt.Errorf("claim lost in the network")
}

func TestLeaseClaimNeedsShardQuorum(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.OpenLocalPool(b, 3, 2, 1000, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}

	// 2 of 3 arbiters unreachable: no quorum, no leadership.
	shards := []fleet.Shard{deafShard{pool.Shards[0]}, deafShard{pool.Shards[1]}, pool.Shards[2]}
	gw, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller(t, gw, "http://gw")
	if err := ctl.Claim(); err == nil {
		t.Fatal("claim without a shard quorum must fail")
	}
	if ctl.Active() {
		t.Fatal("active without a quorum")
	}

	// 1 of 3 unreachable: 2/3 is a majority — leadership holds.
	shards = []fleet.Shard{deafShard{pool.Shards[0]}, pool.Shards[1], pool.Shards[2]}
	gw, err = fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctl = controller(t, gw, "http://gw")
	if err := ctl.Claim(); err != nil {
		t.Fatalf("claim with a 2/3 quorum: %v", err)
	}
	if !ctl.Active() {
		t.Fatal("not active despite quorum")
	}
}

// TestLeaseRunStandbyTakeover drives the Run loop: a standby holds
// back while its probe sees a live active, then claims after the
// configured consecutive misses.
func TestLeaseRunStandbyTakeover(t *testing.T) {
	b := building.PaperHouse()
	pool, gwA, gwB := twinGateways(t, b, 3)
	ctlA := controller(t, gwA, "http://gwA")
	if err := ctlA.Claim(); err != nil {
		t.Fatal(err)
	}

	var peerDown chan struct{} = make(chan struct{})
	ctlB, err := fleet.NewLeaseController(gwB, fleet.LeaseConfig{
		Self:         "http://gwB",
		TTL:          90 * time.Millisecond,
		MissedProbes: 2,
		Probe: func() error {
			select {
			case <-peerDown:
				return fmt.Errorf("peer refused")
			default:
				return nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go ctlB.Run(stop)

	// While the active answers probes, the standby must not claim.
	time.Sleep(300 * time.Millisecond)
	if ctlB.Active() {
		t.Fatal("standby claimed while the active was healthy")
	}
	if epoch, _ := pool.Servers[0].GrantedLease(); epoch != 1 {
		t.Fatalf("grant moved to %d during healthy standby", epoch)
	}

	// Kill the active (as the probe sees it). Within a few ticks the
	// standby must claim the next epoch.
	close(peerDown)
	deadline := time.Now().Add(5 * time.Second)
	for !ctlB.Active() {
		if time.Now().After(deadline) {
			t.Fatal("standby never took over after probe misses")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ctlB.Epoch() != 2 {
		t.Fatalf("takeover epoch = %d", ctlB.Epoch())
	}
	// The deposed active's writes are now fenced.
	stream := synthStream(b, 1, 1, 3)
	stampStream(stream, 1)
	if _, err := gwA.Ingest(stream[0]); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("deposed active's write: err=%v", err)
	}
}

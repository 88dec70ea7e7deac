package fleet_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// pauseShard freezes ONE IngestBatch call mid-flight when armed: the
// call signals `entered` and then waits for resume — the zombie
// gateway's dispatch held inside a shard write while leadership moves
// underneath it. Completed inner calls are counted so the test can
// prove other sub-batches really committed at the old epoch.
type pauseShard struct {
	fleet.Shard
	mu      sync.Mutex
	gate    chan struct{} // non-nil: next IngestFrame blocks on it
	entered chan struct{} // closed when that call is inside
	done    atomic.Int64  // completed inner IngestFrame calls
}

func (p *pauseShard) arm() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gate = make(chan struct{})
	p.entered = make(chan struct{})
	return p.entered
}

func (p *pauseShard) resume() {
	p.mu.Lock()
	gate := p.gate
	p.gate, p.entered = nil, nil
	p.mu.Unlock()
	if gate != nil {
		close(gate)
	}
}

func (p *pauseShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	p.mu.Lock()
	gate, entered := p.gate, p.entered
	p.entered = nil // signal only the first arrival; the gate stays up
	p.mu.Unlock()
	if gate != nil {
		if entered != nil {
			close(entered)
		}
		<-gate
	}
	out, err := p.Shard.IngestFrame(frame, reports)
	if err == nil {
		p.done.Add(1)
	}
	return out, err
}

// TestZombieGatewayFencedExactlyOnce is the PR's acceptance drill, in
// process: an active gateway is paused INSIDE a shard write mid-batch,
// the standby claims leadership through the shard quorum and takes
// over, the zombie resumes — its held write lands fenced — and the
// device uplink retransmits the whole batch through the new leader.
// Some sub-batches therefore arrive twice (once at epoch 1, once at
// epoch 2) and one arrives fenced; the final fleet state must still be
// byte-identical to a clean single server fed the stream exactly once.
// Per device codec: under binary the uploads are pre-split, so the write
// the zombie holds is a section it forwarded verbatim — the forward under
// a deposed gateway — and the new leader must forward them verbatim too.
func TestZombieGatewayFencedExactlyOnce(t *testing.T) {
	for _, codec := range []transport.Codec{transport.CodecJSON, transport.CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) { zombieGatewayFencedExactlyOnce(t, codec) })
	}
}

func zombieGatewayFencedExactlyOnce(t *testing.T, codec transport.Codec) {
	const seed = 42
	b := building.PaperHouse()

	pool, err := fleet.OpenLocalPool(b, 3, 2, 1000, "", store.FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	// Gateway A's clients, each pausable; gateway B gets its own client
	// set over the same servers (the epoch stamp is per-client).
	paused := make([]*pauseShard, len(pool.Shards))
	shardsA := make([]fleet.Shard, len(pool.Shards))
	for i, s := range pool.Shards {
		paused[i] = &pauseShard{Shard: s}
		shardsA[i] = paused[i]
	}
	shardsB := make([]fleet.Shard, len(pool.Servers))
	for i, srv := range pool.Servers {
		ls, err := fleet.NewLocalShard(fmt.Sprintf("shard-%d", i), srv)
		if err != nil {
			t.Fatal(err)
		}
		shardsB[i] = ls
	}
	gwA, err := fleet.New(shardsA, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gwB, err := fleet.New(shardsB, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	gwB.Instrument(met)
	for _, srv := range pool.Servers {
		srv.Instrument(met)
	}

	// Same model the oracle's reference trains, installed once on the
	// shared servers.
	trainer := newServer(t, b)
	if err := experiments.TrainCrowdModel(trainer, b, seed); err != nil {
		t.Fatal(err)
	}
	snap, ok := trainer.ModelSnapshot()
	if !ok {
		t.Fatal("trainer has no model snapshot")
	}
	if err := gwA.DistributeModel(snap); err != nil {
		t.Fatal(err)
	}

	// Real HTTP faces: handler wiring needs the controller, and the
	// controller's Self URL needs the listener — indirect through a
	// late-bound handler.
	var handlerA, handlerB http.Handler
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerA.ServeHTTP(w, r)
	}))
	defer tsA.Close()
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerB.ServeHTTP(w, r)
	}))
	defer tsB.Close()
	// LIFO: release any still-held write before the listeners drain, so
	// an early t.Fatal cannot deadlock the deferred Closes.
	defer func() {
		for _, p := range paused {
			p.resume()
		}
	}()
	ctlA, err := fleet.NewLeaseController(gwA, fleet.LeaseConfig{Self: tsA.URL, Peer: tsB.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctlB, err := fleet.NewLeaseController(gwB, fleet.LeaseConfig{Self: tsB.URL, Peer: tsA.URL})
	if err != nil {
		t.Fatal(err)
	}
	handlerA = fleet.Handler(gwA, fleet.HandlerOptions{Lease: ctlA})
	handlerB = fleet.Handler(gwB, fleet.HandlerOptions{Lease: ctlB})

	if err := ctlA.Claim(); err != nil {
		t.Fatal(err)
	}

	// The device-side uplink: active first, standby second, no real
	// sleeping.
	uplink := &transport.HTTPUplink{BaseURL: tsA.URL, Peers: []string{tsB.URL}, Codec: codec, Retry: transport.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	}}

	stream := synthStream(b, 12, 60, 11)
	stampStream(stream, 1)
	const chunk = 36
	var chunks [][]transport.Report
	for i := 0; i < len(stream); i += chunk {
		chunks = append(chunks, stream[i:min(i+chunk, len(stream))])
	}
	mid := len(chunks) / 2

	// Phase 1: steady state through the active.
	for _, c := range chunks[:mid] {
		if err := uplink.SendBatch(c); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: the zombie batch. Freeze A inside the sub-batch for the
	// shard owning the batch's first device.
	zombie := chunks[mid]
	victim, err := gwA.ShardFor(zombie[0].Device)
	if err != nil {
		t.Fatal(err)
	}
	baseline := make([]int64, len(paused))
	for i, p := range paused {
		baseline[i] = p.done.Load()
	}
	entered := paused[victim].arm()
	sent := make(chan error, 1)
	go func() { sent <- uplink.SendBatch(zombie) }()
	select {
	case <-entered: // A's dispatch is now held inside shard-victim's write
	case <-time.After(10 * time.Second):
		t.Fatal("vacuous: the zombie's delivery never entered the paused shard — the gateway delivers past the double")
	}

	// Wait for at least one OTHER sub-batch to commit at epoch 1 —
	// otherwise the "paused mid-batch" scenario is vacuous.
	partial := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		for i, p := range paused {
			if i != victim && p.done.Load() > baseline[i] {
				partial = true
			}
		}
		if partial {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !partial {
		t.Fatal("no sub-batch committed while the victim was paused — dispatch is not concurrent and the drill is vacuous")
	}

	// The standby takes over while the zombie is frozen.
	if err := ctlB.Claim(); err != nil {
		t.Fatalf("standby takeover: %v", err)
	}
	if ctlB.Epoch() != 2 {
		t.Fatalf("takeover epoch = %d", ctlB.Epoch())
	}

	// Unpause. The held write is stamped with epoch 1 against grants of
	// 2: fenced. A answers the uplink 409 + hint, deposes itself via
	// ObserveStale, and the uplink retransmits the WHOLE batch to B —
	// the double-delivery overlap the seq marks must absorb.
	paused[victim].resume()
	if err := <-sent; err != nil {
		t.Fatalf("zombie batch never landed through the new leader: %v", err)
	}
	if ctlA.Active() {
		t.Fatal("zombie gateway still believes it leads after being fenced")
	}
	redirects, _ := uplink.Stats()
	if redirects == 0 {
		t.Fatal("uplink never followed a leader hint — the failover path is vacuous")
	}
	if uplink.Target() != tsB.URL {
		t.Fatalf("uplink target after failover = %q, want the new leader %q", uplink.Target(), tsB.URL)
	}
	for i, srv := range pool.Servers {
		if epoch, holder := srv.GrantedLease(); epoch != 2 || holder != tsB.URL {
			t.Fatalf("shard-%d grant after takeover = %d/%q", i, epoch, holder)
		}
	}

	// A deposed gateway's direct writes stay fenced forever.
	if _, err := gwA.IngestBatch(zombie); !errors.Is(err, transport.ErrStaleLeader) {
		t.Fatalf("deposed gateway write: err=%v", err)
	}

	// Phase 3: the rest of the trace rides the new leader.
	for _, c := range chunks[mid+1:] {
		if err := uplink.SendBatch(c); err != nil {
			t.Fatal(err)
		}
	}

	// The oracle: a clean single server fed the stream exactly once.
	// Byte-identical occupancy, events and dwell — double-delivered and
	// fenced batches must have left no trace.
	ref, err := scenario.Reference(b, [][]transport.Report{stream}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.VerifyExact(gwB, ref); err != nil {
		t.Fatal(err)
	}
	counters := met.TakeSnapshot().Counters
	if stale := counters["bms_lease_stale_admits_total"]; stale != 0 {
		t.Fatalf("%v stale-epoch writes were admitted past the fence", stale)
	}
	if fwd := counters["fleet_presplit_forwarded_total"]; (fwd > 0) != (codec == transport.CodecBinary) {
		t.Fatalf("the new leader forwarded %v pre-split uploads verbatim under the %s codec", fwd, codec)
	}
}

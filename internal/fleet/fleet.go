// Package fleet is the horizontal-scaling layer above bms: a
// consistent-hash gateway that shards device report streams across a
// pool of BMS servers, distributes trained model snapshots to every
// shard, and federates the per-shard occupancy state back into
// building-level head counts, enter/exit event streams and dwell
// rollups.
//
// Routing is keyed by device id, so one device's timeline always lands
// on one shard and the per-device ordering contract of bms.IngestBatch
// carries through unchanged. Shards hang on a ring of virtual nodes;
// when a shard is marked down its keys — and only its keys — slide to
// the next healthy shard clockwise, which makes rebalancing
// deterministic and minimal. Because every shard debounces and
// timestamps transitions identically, the federated event stream is
// byte-identical to what one big server would have produced for the
// same input (see TestFleetMatchesSingleServer).
package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/bms"
	"occusim/internal/obs"
	"occusim/internal/occupancy"
	"occusim/internal/overload"
	"occusim/internal/ring"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// Config parameterises a Gateway; zero fields take defaults.
type Config struct {
	// Replicas is the number of virtual nodes per shard on the hash
	// ring (default 64). More replicas smooth the key distribution at
	// the cost of a larger ring.
	Replicas int
	// ProbeInterval rate-limits CheckHealth: calls within the interval
	// of the last probe return the cached statuses instead of fanning a
	// fresh probe to every shard. Gateways that expose CheckHealth on a
	// public health endpoint (fleet.Handler, bmsd -shards) should set
	// this so external polling frequency cannot drive probe fan-out or
	// routing flaps. 0 probes on every call.
	ProbeInterval time.Duration
	// ResidueTTL ages out per-device residue: state a shard still holds
	// for a device that moved away without migration (the old owner was
	// unreachable at rebalance). When > 0, federated reads sweep the
	// healthy shards (rate-limited: at most one expiry fan-out per
	// TTL/4 of report-clock advance, so residue lives ≤ 1.25×TTL),
	// evicting any device whose last report is more
	// than ResidueTTL behind the newest report the gateway has routed —
	// measured on the reports' own clock, so simulated and real time
	// behave identically. The comparison leans on the report schema's
	// contract that AtSeconds is one building-wide clock (see
	// transport.Report): a device whose clock lags the building's by
	// more than the TTL would be swept as residue, so do not enable
	// this with unsynchronised device clocks — or enable SkewWindow,
	// which re-establishes that contract against hostile clocks. 0
	// disables the sweep; migration alone then keeps the views exact as
	// long as old owners stay reachable.
	ResidueTTL time.Duration
	// Admission bounds concurrent gateway ingest (see overload.Config):
	// beyond MaxInflight running and MaxQueue waiting, Ingest and
	// IngestBatch shed with an overload error (HTTP face: 429 +
	// Retry-After) instead of queuing without bound. The zero config
	// admits everything.
	Admission overload.Config
	// SkewWindow enables skew-tolerant ingest: a device whose report
	// times sit further than the window from the building's report
	// clock has a per-device offset estimated and subtracted before
	// routing, so one phone with a broken clock cannot poison the
	// ResidueTTL sweep or the federated timeline (see skewTracker). 0
	// trusts device clocks, the historical behaviour.
	SkewWindow time.Duration
	// BreakerThreshold arms a per-shard circuit breaker on the ingest
	// dispatch path: after that many CONSECUTIVE infrastructure
	// failures (timeouts, connection errors, 5xx — never 4xx/429) the
	// shard's circuit opens and deliveries to it fail fast with
	// ErrShardTripped until BreakerCooldown (default 5s) elapses, then
	// one half-open probe decides re-close vs re-open. Distinct from
	// MarkDown: the breaker never reassigns keys. 0 disables.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// ErrNoHealthyShards is returned when every shard is down — the
// fleet's terminal routing failure, 503 at the HTTP face.
var ErrNoHealthyShards error = &transport.Error{Code: http.StatusServiceUnavailable, Err: errors.New("fleet: no healthy shards")}

// ErrShardMisbehaved wraps protocol violations by a shard (a 2xx
// answer with the wrong shape, a short rooms slice): server-side
// faults, never the reporting client's — 502 at the HTTP face, so
// upstream retry policies treat them as transient.
var ErrShardMisbehaved error = &transport.Error{Code: http.StatusBadGateway, Err: errors.New("fleet: shard protocol error")}

// Gateway fronts a pool of shards. It is safe for concurrent use.
type Gateway struct {
	shards   []Shard
	ring     *ring.Ring // shared routing function; see internal/ring
	byName   map[string]int
	replicas int

	// mu guards down, pinned, fenced and digest; routing takes it shared
	// on every report. pinned marks shards an operator drained with
	// MarkDown: health probes must not resurrect them. fenced maps each
	// mid-migration device to its ingest fence — fences are raised under
	// the same exclusive hold that flips the routing table, so no report
	// can resolve an owner under the new table before its device's fence
	// is up (see applyRoutingChange). digest is the cached ring
	// fingerprint of (names, replicas, down) — the pre-split contract
	// token — recomputed under the exclusive hold whenever down changes.
	mu     sync.RWMutex
	down   []bool
	pinned []bool
	fenced map[string]*fence
	digest string

	// routed counts reports delivered per shard (batch + single).
	routed []atomic.Int64

	// devMu guards the device registry the rebalance migration and the
	// TTL sweep work from: every device the gateway has delivered for,
	// the newest report time routed, and the cutoff of the last
	// fully-successful sweep. migrateMu serializes whole migrations
	// (concurrent routing changes — an operator MarkDown racing a
	// probe transition — must not interleave their evict/install pairs
	// for one device); sweepMu serializes TTL sweeps so concurrent
	// pollers don't fan duplicate expiry calls.
	ttl       time.Duration
	migrateMu sync.Mutex
	sweepMu   sync.Mutex
	devMu     sync.Mutex
	known     map[string]string // name → itself: the canonical string
	maxAt     float64
	lastSweep time.Duration
	// flight counts in-flight shard deliveries per device (devMu);
	// flightCond is signalled as counts return to zero, which is what
	// the migration's drain phase waits on.
	flight     map[string]int
	flightCond *sync.Cond
	// sweepAt/sweepOK back off retries of a failed sweep (sweepMu).
	sweepAt time.Time
	sweepOK bool

	// probeMu guards the CheckHealth rate limit (probeEvery > 0).
	probeEvery   time.Duration
	probeMu      sync.Mutex
	lastProbe    time.Time
	lastStatuses []ShardStatus

	// gate bounds concurrent ingest admissions (nil admits all); skew
	// re-anchors hostile device clocks (nil trusts them); breakers hold
	// one circuit per shard on the dispatch path (nil disables). All
	// three are fixed at New and internally synchronized.
	gate     *overload.Gate
	skew     *skewTracker
	breakers []*breaker

	// gwEpoch is the leadership epoch stamped on every shard write; see
	// SetEpoch. Zero (the default) writes unfenced.
	gwEpoch atomic.Uint64

	// met is the telemetry handle bundle (nil until Instrument); see
	// telemetry.go.
	met *gatewayMetrics
}

// SetEpoch stamps the gateway's leadership epoch onto every shard
// client: all subsequent ingest, migration and expiry writes carry it,
// so a shard that has granted a newer epoch fences them with
// transport.ErrStaleLeader. The LeaseController calls this on every
// leadership transition; zero returns to unfenced legacy writes.
func (g *Gateway) SetEpoch(epoch uint64) {
	g.gwEpoch.Store(epoch)
	for _, s := range g.shards {
		s.StampEpoch(epoch)
	}
}

// Epoch returns the leadership epoch set by SetEpoch (zero = unfenced).
func (g *Gateway) Epoch() uint64 { return g.gwEpoch.Load() }

// New builds a gateway over the shards. Shard names must be non-empty
// and distinct: they seed the virtual nodes, and a duplicate name would
// silently merge two shards' arcs.
func New(shards []Shard, cfg Config) (*Gateway, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: gateway needs at least one shard")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = ring.DefaultReplicas
	}
	names := make([]string, len(shards))
	for i, s := range shards {
		if s == nil || s.Name() == "" {
			return nil, fmt.Errorf("fleet: nil or unnamed shard")
		}
		names[i] = s.Name()
	}
	g := &Gateway{
		shards:     shards,
		replicas:   cfg.Replicas,
		probeEvery: cfg.ProbeInterval,
		ttl:        cfg.ResidueTTL,
		known:      map[string]string{},
		fenced:     map[string]*fence{},
		flight:     map[string]int{},
		down:       make([]bool, len(shards)),
		pinned:     make([]bool, len(shards)),
		routed:     make([]atomic.Int64, len(shards)),
	}
	g.flightCond = sync.NewCond(&g.devMu)
	g.gate = overload.NewGate(cfg.Admission)
	if cfg.SkewWindow > 0 {
		g.skew = newSkewTracker(cfg.SkewWindow)
	}
	if cfg.BreakerThreshold > 0 {
		g.breakers = make([]*breaker, len(shards))
		for i := range g.breakers {
			g.breakers[i] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		}
	}
	r, err := ring.New(names, cfg.Replicas)
	if err != nil {
		// ring.New only rejects duplicate/empty names; keep the fleet-
		// flavoured error the callers and tests expect.
		return nil, fmt.Errorf("fleet: %w", err)
	}
	g.ring = r
	g.digest = r.Digest(g.down)
	g.byName = make(map[string]int, len(shards))
	for i, n := range names {
		g.byName[n] = i
	}
	return g, nil
}

// Shards returns the pool size.
func (g *Gateway) Shards() int { return len(g.shards) }

// ShardFor returns the index of the shard currently owning the device.
func (g *Gateway) ShardFor(device string) (int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ownerWith(g.down, ring.Hash64(device))
}

// ownerWith walks the ring clockwise from the device's hash to the
// first virtual node of a shard outside the down set — the routing
// function as a pure function of (ring, down), which the rebalance
// migration uses to diff ownership before and after a routing change.
// Callers passing g.down hold g.mu.
func (g *Gateway) ownerWith(down []bool, h uint64) (int, error) {
	idx, err := g.ring.OwnerHash(h, down)
	if err != nil {
		return -1, ErrNoHealthyShards
	}
	return idx, nil
}

// RingInfo is the routing table a pre-splitting device needs: the
// inputs of the ring function plus their canonical digest. Served on
// GET /api/v1/ring (see http.go); a device that splits against this
// view stamps the digest on its upload and the gateway forwards the
// pre-split sections only while the digest still matches its own.
type RingInfo struct {
	Digest   string   `json:"digest"`
	Replicas int      `json:"replicas"`
	Shards   []string `json:"shards"`
	Down     []bool   `json:"down"`
}

// RingInfo snapshots the current routing inputs and digest. A gateway
// correcting skew must see every timestamp before it routes, so it
// publishes no digest: a device then sends plain frames instead of paying
// to cut sections forward would refuse.
func (g *Gateway) RingInfo() RingInfo {
	g.mu.RLock()
	defer g.mu.RUnlock()
	digest := g.digest
	if g.skew != nil {
		digest = ""
	}
	return RingInfo{
		Digest:   digest,
		Replicas: g.ring.Replicas(),
		Shards:   g.ring.Names(),
		Down:     append([]bool(nil), g.down...),
	}
}

// RingDigest returns the cached fingerprint of the current routing
// inputs.
func (g *Gateway) RingDigest() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.digest
}

// fence pauses ingest for one device while its state migrates between
// shards; done is closed when the move completes and waiters re-resolve
// routing against the new table.
type fence struct {
	done chan struct{}
}

// acquire admits an upload's devices to delivery under one consistent
// routing view: fence check, the caller's routing check, registration
// and in-flight accounting happen in a single critical section against
// the routing flip (applyRoutingChange holds mu exclusively for the flip
// AND the fence raise, so a report either routes fully under the old
// table — and is then drained before the move — or waits on the fence
// and routes under the new one; no report can thread between). An upload
// with a device mid-migration blocks until the fence lifts — the "pause"
// half of pause → drain → move → resume — and starts over.
//
// devices are the upload's devices (repeats allowed), counts the reports
// each entry stands for, maxAt the upload's newest report time. check
// runs under the shared routing hold once no device is fenced: a
// server-side split resolves its owners there, a pre-split upload
// compares its digest (a fence wait implies a routing change, which
// implies a digest change, so a pre-split upload that waited always
// comes back ErrPresplitMismatch rather than forwarding against the new
// table). A nil error must be paired with release once the shard
// deliveries finish, success or not.
func (g *Gateway) acquire(devices []string, counts []int, maxAt float64, check func() error) error {
	for {
		g.mu.RLock()
		if len(g.fenced) > 0 {
			var wait chan struct{}
			for _, d := range devices {
				if f, ok := g.fenced[d]; ok {
					wait = f.done
					break
				}
			}
			if wait != nil {
				g.mu.RUnlock()
				<-wait
				continue
			}
		}
		if err := check(); err != nil {
			g.mu.RUnlock()
			return err
		}
		// Register and count in-flight under the same routing view: a
		// migration that flips after this section sees these devices in
		// the registry (its snapshot is taken under the exclusive hold)
		// and drains these deliveries before moving state. Registering
		// even before the delivery succeeds is deliberate — a lost
		// response still committed on the shard, and the device must
		// stay visible to rebalance migration.
		g.devMu.Lock()
		for i, d := range devices {
			g.known[d] = d
			g.flight[d] += counts[i]
		}
		if maxAt > g.maxAt {
			g.maxAt = maxAt
		}
		g.devMu.Unlock()
		g.mu.RUnlock()
		return nil
	}
}

// release returns the in-flight counts acquire took.
func (g *Gateway) release(devices []string, counts []int) {
	g.devMu.Lock()
	for i, d := range devices {
		if g.flight[d] -= counts[i]; g.flight[d] <= 0 {
			delete(g.flight, d)
		}
	}
	g.devMu.Unlock()
	g.flightCond.Broadcast()
}

// delivery is one shard's share of an upload, however it was split: one
// wire frame — the bytes a pre-splitting device encoded, forwarded
// verbatim, or the frame the server-side split cut — and its report
// count. deliver fills rooms or err.
type delivery struct {
	idx, n int // shard index, report count
	frame  []byte
	rooms  []string
	err    error
}

// deliver sends one shard its frame and checks the answer: breaker
// allow → timed send → breaker observe → rooms-length check → note.
func (g *Gateway) deliver(d *delivery) {
	shard := g.shards[d.idx]
	if d.err = g.breakerAllow(d.idx); d.err != nil {
		return
	}
	gm := g.met
	var sendStart time.Time
	if gm != nil {
		sendStart = time.Now()
	}
	out, err := shard.IngestFrame(d.frame, d.n)
	if gm != nil {
		gm.sendLatency[d.idx].Since(sendStart)
	}
	g.breakerObserve(d.idx, err)
	if err != nil {
		d.err = fmt.Errorf("fleet: shard %s: %w", shard.Name(), err)
		return
	}
	if len(out) != d.n {
		// A version-skewed or misbehaving shard must fail the upload, not
		// panic the reassembly.
		d.err = fmt.Errorf("%w: shard %s returned %d rooms for %d reports",
			ErrShardMisbehaved, shard.Name(), len(out), d.n)
		return
	}
	d.rooms = out
	g.note(d.idx, int64(d.n))
}

// dispatch delivers every share of the upload concurrently — the
// caller's goroutine takes the last slot itself, so a one-shard upload
// runs inline — and returns the first failure by slot order. A shard
// failure fails the call and the caller's retry policy
// (transport.RetryPolicy upstream) decides what happens next.
func (g *Gateway) dispatch(sc *uploadScratch) error {
	for k := range sc.out {
		d := &sc.out[k]
		switch {
		case d.frame == nil: // a shard the split sent nothing
		case k == len(sc.out)-1:
			g.deliver(d)
		default:
			sc.wg.Add(1)
			go func() {
				defer sc.wg.Done()
				g.deliver(d)
			}()
		}
	}
	sc.wg.Wait()
	for k := range sc.out {
		if err := sc.out[k].err; err != nil {
			return err
		}
	}
	return nil
}

// Ingest routes one report — a batch of one — to its owning shard and
// returns the predicted room.
func (g *Gateway) Ingest(r transport.Report) (string, error) {
	rooms, err := g.IngestBatch([]transport.Report{r})
	if err != nil {
		return "", err
	}
	return rooms[0], nil
}

// IngestBatch splits a mixed-device batch into one wire frame per owning
// shard (stable split, so each device's reports keep their order),
// delivers the frames concurrently and reassembles the predicted rooms
// into input order. The whole batch is validated before any shard hears
// of it and routed against one consistent view of shard health. With
// Admission configured the call may shed (an overload error the HTTP
// face maps to 429 + Retry-After); with a breaker armed and an owner's
// circuit open it fails fast with ErrShardTripped. reports is not
// retained or written to.
func (g *Gateway) IngestBatch(reports []transport.Report) ([]string, error) {
	if len(reports) == 0 {
		return nil, nil
	}
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := transport.EncodeReports(b, reports); err != nil {
		return nil, fmt.Errorf("fleet: batch: %w", err)
	}
	sc := getUploadScratch()
	defer sc.release()
	if err := g.split(b, sc); err != nil {
		return nil, err
	}
	return slices.Clone(sc.flat), nil
}

// split is the server-side split, the one every upload the gateway must
// cut itself goes through — a JSON batch, a plain wire frame, a
// pre-split upload it could not forward: b is the whole upload, rendered
// or decoded into the caller's pooled batch, and on success sc.flat
// holds the predicted room per report in b's order. Reports are checked
// before anything is sent, so an upload one clean server would reject
// whole leaves no shard with a part of it; then each report's bytes are
// appended to its ring owner's frame, the frames go out through dispatch
// and the rooms come back through the map the cut kept. b's report
// times are corrected in place when skew correction is on. sc may be
// what a refused forward left behind: everything split reads of it, it
// sets first.
func (g *Gateway) split(b *wire.Batch, sc *uploadScratch) error {
	n := b.Len()
	sc.flat = sc.flat[:0]
	if n == 0 {
		return nil
	}
	admit, err := g.gate.Acquire()
	if err != nil {
		return err
	}
	defer admit()
	gm := g.met
	var splitStart time.Time
	if gm != nil {
		splitStart = time.Now()
		gm.batchSize.Observe(int64(n))
	}
	for i, device := range b.Devices {
		if device == "" {
			return fmt.Errorf("fleet: batch report %d: report without device", i)
		}
	}
	g.skew.correct(b)
	// One entry per report: a device that repeats is registered and
	// counted once per report, which is what its in-flight count means.
	sc.counts = sized(sc.counts, n)
	sc.maxAt = 0
	for i, at := range b.At {
		sc.counts[i] = 1
		sc.maxAt = max(sc.maxAt, at)
	}
	sc.shardOf = sized(sc.shardOf, n)
	err = g.acquire(b.Devices, sc.counts, sc.maxAt, func() error {
		for i, d := range b.Devices {
			idx, err := g.ownerWith(g.down, ring.Hash64(d))
			if err != nil {
				return err
			}
			sc.shardOf[i] = int32(idx)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer g.release(b.Devices, sc.counts)
	sc.cut(b, len(g.shards))
	if gm != nil {
		gm.splitTime.Since(splitStart)
	}
	if err := g.dispatch(sc); err != nil {
		return err
	}

	var asmStart time.Time
	if gm != nil {
		asmStart = time.Now()
	}
	for i, s := range sc.shardOf {
		sc.flat = append(sc.flat, sc.out[s].rooms[sc.posOf[i]])
	}
	if gm != nil {
		gm.reassembly.Since(asmStart)
	}
	return nil
}

// AdmissionStats returns lifetime (admitted, shed) ingest counts of the
// gateway's own gate; zeros when Admission is not configured.
func (g *Gateway) AdmissionStats() (admitted, shed uint64) {
	return g.gate.Stats()
}

// SkewAdjusted returns how many reports have had their timestamps
// re-anchored onto the building clock; zero when SkewWindow is off.
func (g *Gateway) SkewAdjusted() uint64 {
	return g.skew.stats()
}

// note bumps the per-shard routed counter.
func (g *Gateway) note(idx int, n int64) { g.routed[idx].Add(n) }

// DistributeModel pushes a trained model snapshot to every shard, so
// classification stays identical fleet-wide. The snapshot must carry a
// positive version: with version 0 each shard's store would bump its
// own counter and the fleet's reported versions would silently diverge.
// Failures are collected per shard and joined; shards that did install
// keep the new model (the caller re-distributes to stragglers after
// they recover).
func (g *Gateway) DistributeModel(snap bms.ModelSnapshot) error {
	if snap.Version <= 0 {
		return fmt.Errorf("fleet: model snapshot must carry a positive version, got %d", snap.Version)
	}
	all := g.unmarked(nil)
	_, errs := gather(g, all, func(s Shard) (struct{}, error) { return struct{}{}, s.InstallModel(snap) })
	return g.joined(all, errs)
}

// unmarked snapshots, under the routing lock, the indices of the shards
// a routing flag — g.down for the healthy ones, g.pinned for those a
// probe may reach — does not mark; nil marks none.
func (g *Gateway) unmarked(flag []bool) []int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]int, 0, len(g.shards))
	for i := range g.shards {
		if flag == nil || !flag[i] {
			out = append(out, i)
		}
	}
	return out
}

// joined names each shard's failure in a round over idx and joins them.
func (g *Gateway) joined(idx []int, errs []error) error {
	for k, err := range errs {
		if err != nil {
			errs[k] = fmt.Errorf("fleet: shard %s: %w", g.shards[idx[k]].Name(), err)
		}
	}
	return errors.Join(errs...)
}

// maybeSweep runs the residue TTL sweep when it is configured and the
// report clock has advanced past the last fully-swept cutoff: every
// healthy shard evicts devices last observed more than ResidueTTL
// before the newest routed report. Actively reporting devices always
// have a recent observation on their current owner, so the sweep only
// catches residue (and genuinely departed devices). The cutoff is
// recorded as done only when every healthy shard swept successfully —
// a shard whose expiry call failed keeps the sweep re-armed, so its
// residue is retried on the next read instead of being skipped forever
// (the report clock may never advance again).
//
// Sweeps are rate-limited on the report clock: a fresh sweep runs only
// once the cutoff has advanced by at least a quarter of the TTL past
// the last completed one, so steady-state reads under live traffic are
// sweep-free (residue then lives at most 1.25×TTL — the bound the
// knob promises, slightly relaxed, instead of a per-read expiry
// fan-out to every shard). After an incomplete sweep (some shard's
// expiry call failed), retries additionally back off on the wall
// clock, so one persistently failing shard — a version-skewed box
// without the expire endpoint, a timeout — cannot turn every
// federated read into a blocking fan-out.
func (g *Gateway) maybeSweep() {
	if g.ttl <= 0 {
		return
	}
	// TryLock, not Lock: a reader arriving while a sweep is in flight
	// must take its fast path (merge and return), not queue behind the
	// sweeper's network round-trips.
	if !g.sweepMu.TryLock() {
		return
	}
	defer g.sweepMu.Unlock()
	g.devMu.Lock()
	cutoff := time.Duration(g.maxAt*float64(time.Second)) - g.ttl
	last := g.lastSweep
	g.devMu.Unlock()
	if cutoff <= 0 || cutoff < last+g.ttl/4 {
		return
	}
	if !g.sweepOK && time.Since(g.sweepAt) < sweepRetryBackoff {
		return
	}
	g.sweepAt = time.Now()
	_, g.sweepOK = g.expireBefore(cutoff)
	if g.sweepOK {
		g.devMu.Lock()
		if cutoff > g.lastSweep {
			g.lastSweep = cutoff
		}
		g.devMu.Unlock()
	}
}

// sweepRetryBackoff spaces retries of a sweep some shard failed.
const sweepRetryBackoff = 30 * time.Second

// ExpireBefore evicts devices last observed before cutoff (report
// clock) from every healthy shard and the gateway's registry,
// returning the evicted names, sorted and deduplicated. Exposed for
// operators; Occupancy/Rollup run it automatically via ResidueTTL.
func (g *Gateway) ExpireBefore(cutoff time.Duration) []string {
	out, _ := g.expireBefore(cutoff)
	return out
}

// expireBefore fans the sweep to the healthy shards; complete is true
// only if every one of them answered. A device leaves the gateway's
// migration registry only when its CURRENT ring owner expired it (a
// genuine departure) — expiring a residue copy off a non-owner must
// not hide a still-active device from the next rebalance migration.
func (g *Gateway) expireBefore(cutoff time.Duration) (expired []string, complete bool) {
	healthy := g.unmarked(g.down)
	perShard, errs := gather(g, healthy, func(s Shard) ([]string, error) { return s.ExpireBefore(cutoff) })
	seen := map[string]bool{}
	ownerExpired := map[string]bool{}
	complete = true
	for k, i := range healthy {
		if errs[k] != nil {
			complete = false // retried on a later read
			continue
		}
		for _, d := range perShard[k] {
			seen[d] = true
			if owner, err := g.ShardFor(d); err == nil && owner == i {
				ownerExpired[d] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	g.devMu.Lock()
	for d := range seen {
		if ownerExpired[d] {
			delete(g.known, d)
		}
		out = append(out, d)
	}
	g.devMu.Unlock()
	sort.Strings(out)
	return out, complete
}

// readView names a federated read for its timing histogram.
type readView int

const (
	viewOccupancy readView = iota
	viewEvents
	viewDwell
	viewRollup
)

var readViewNames = [...]string{"occupancy", "events", "dwell", "rollup"}

// gather is the one round every many-shard call makes — the federated
// reads, model distribution, the TTL sweep, the health probe, the
// registry rebuild and the lease claim: it calls the shards idx names all
// at once, so a round costs the slowest shard's latency rather than the
// sum of them, and returns the values and the errors in idx order, so
// whatever each caller makes of them is deterministic. The caller's
// goroutine takes the last shard itself: a one-shard round runs inline.
func gather[T any](g *Gateway, idx []int, call func(Shard) (T, error)) ([]T, []error) {
	out := make([]T, len(idx))
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	for k, i := range idx {
		if k == len(idx)-1 {
			out[k], errs[k] = call(g.shards[i])
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k], errs[k] = call(g.shards[i])
		}()
	}
	wg.Wait()
	return out, errs
}

// federate is a federated read's round: gather over the healthy shards,
// timed under its view. Any shard's failure is counted against it and
// fails the read, reported as the first by shard order — a shard that
// cannot be read is the fleet's fault, 502 at the HTTP face.
func federate[T any](g *Gateway, view readView, read func(Shard) (T, error)) ([]T, error) {
	healthy := g.unmarked(g.down)
	gm := g.met
	var start time.Time
	if gm != nil {
		start = time.Now()
	}
	out, errs := gather(g, healthy, read)
	var first error
	for k, err := range errs {
		if err == nil {
			continue
		}
		if gm != nil {
			gm.readErrors[healthy[k]].Inc()
		}
		if first == nil {
			first = &transport.Error{Code: http.StatusBadGateway, Err: fmt.Errorf("fleet: shard %s: %w", g.shards[healthy[k]].Name(), err)}
		}
	}
	if gm != nil {
		gm.readTime[view].Since(start)
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// render is the one state read behind Occupancy, DwellTotals and Rollup:
// a summary gathered from every healthy shard, merged in shard order and
// rendered by the renderer one bms.Server uses on its own summary, so
// the three cannot disagree with each other or with a single box.
// Devices is the union of the shards' device names, so a stale copy a
// recovered shard still holds does not count a device twice; every other
// field is a sum. A down shard's devices are simply absent until it
// recovers or its keys report through their new owner. The cost
// follows the fleet's current state — rooms and devices — not the length
// of the event history. view labels the read's timing for its caller.
func render[T any](g *Gateway, view readView, as func(occupancy.Summary) T) (out T, err error) {
	g.maybeSweep()
	sums, err := federate(g, view, Shard.Summary)
	if err != nil {
		return out, err
	}
	merged := occupancy.NewSummary()
	for _, sum := range sums {
		merged.Merge(sum)
	}
	return as(merged), nil
}

// Occupancy is the building-level head counts and device rooms.
func (g *Gateway) Occupancy() (bms.OccupancySnapshot, error) {
	return render(g, viewOccupancy, bms.RenderOccupancy)
}

// Events merges the healthy shards' committed enter/exit streams into
// the fleet-wide event log, time-canonical exactly as occupancy.Sharded
// merges its stripes: nondecreasing time, ties broken by device name,
// one device's same-instant exit/enter pair keeping its in-shard order.
func (g *Gateway) Events() ([]occupancy.Event, error) {
	streams, err := federate(g, viewEvents, Shard.Events)
	if err != nil {
		return nil, err
	}
	var all []occupancy.Event
	for _, evs := range streams {
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].Device < all[j].Device
	})
	return all, nil
}

// DwellTotals is the building-level per-room dwell.
func (g *Gateway) DwellTotals() (map[string]time.Duration, error) {
	return render(g, viewDwell, bms.RenderDwell)
}

// Rollup and RoomRollup are the building-level view and its per-room
// slice; one server answers the same route with the same fields (see
// bms.RenderRollup).
type (
	Rollup     = bms.Rollup
	RoomRollup = bms.RoomRollup
)

// Rollup is head counts, transition totals and dwell per room.
func (g *Gateway) Rollup() (Rollup, error) {
	return render(g, viewRollup, bms.RenderRollup)
}

// ShardStatus is one shard's state from the gateway's point of view.
type ShardStatus struct {
	Name string `json:"name"`
	Down bool   `json:"down"`
	// Routed counts reports delivered to the shard by this gateway.
	Routed int64 `json:"routed"`
	// Err is the last health-check failure ("" when healthy).
	Err string `json:"err,omitempty"`
	// Breaker is the shard's circuit state ("closed", "open",
	// "half-open"); empty when no breaker is armed. Trips counts how
	// often the circuit has opened.
	Breaker string `json:"breaker,omitempty"`
	Trips   uint64 `json:"trips,omitempty"`
}

// status is shard i's ShardStatus under the down flag: its routed count,
// its circuit when a breaker is armed and, from a probe, its failure.
func (g *Gateway) status(i int, down bool, err error) ShardStatus {
	st := ShardStatus{Name: g.shards[i].Name(), Down: down, Routed: g.routed[i].Load()}
	if err != nil {
		st.Err = err.Error()
	}
	if g.breakers != nil {
		state, trips := g.breakers[i].snapshot()
		st.Breaker, st.Trips = "closed", trips
		switch state {
		case breakerOpen:
			st.Breaker = "open"
		case breakerHalfOpen:
			st.Breaker = "half-open"
		}
	}
	return st
}

// CheckHealth probes every shard and updates the routing table: a
// failing shard is marked down (its keys slide to the next healthy
// shard on the ring), a recovering shard is marked up (its keys slide
// back — the same minimal, deterministic movement in reverse). The
// statuses reflect this probe.
func (g *Gateway) CheckHealth() []ShardStatus {
	// Rate limit: within ProbeInterval of the last probe, answer from
	// the cache so external health polling cannot drive probe fan-out.
	// probeMu is held across the probe itself, so concurrent pollers
	// arriving just past the interval queue behind one prober and get
	// its fresh cache instead of each fanning their own sweep.
	if g.probeEvery > 0 {
		g.probeMu.Lock()
		defer g.probeMu.Unlock()
		if !g.lastProbe.IsZero() && time.Since(g.lastProbe) < g.probeEvery {
			return append([]ShardStatus(nil), g.lastStatuses...)
		}
	}
	out := g.probeAll()
	if g.probeEvery > 0 {
		g.lastProbe = time.Now()
		g.lastStatuses = append([]ShardStatus(nil), out...)
	}
	return out
}

// probeAll performs one live health sweep and updates routing.
// Operator-drained shards (MarkDown) are not probed and never
// resurrected by a probe — only MarkUp returns them to routing.
func (g *Gateway) probeAll() []ShardStatus {
	probed := g.unmarked(g.pinned)
	_, failed := gather(g, probed, func(s Shard) (struct{}, error) { return struct{}{}, s.Health() })
	errs := make([]error, len(g.shards))
	for i := range errs {
		errs[i] = errDrained
	}
	for k, i := range probed {
		errs[i] = failed[k]
	}
	// The down-set flip and its fenced migration are one atomic step
	// under migrateMu, for the same ordering reason as setDown.
	g.migrateMu.Lock()
	down := g.applyRoutingChange(func() {
		for i := range g.shards {
			g.down[i] = g.pinned[i] || errs[i] != nil
		}
	})
	g.migrateMu.Unlock()
	out := make([]ShardStatus, len(g.shards))
	for i := range out {
		out[i] = g.status(i, down[i], errs[i])
	}
	return out
}

// errDrained is the probe status of a shard an operator drained.
var errDrained = errors.New("drained by operator")

// MarkDown drains the shard: it leaves routing immediately and stays
// out across health probes until MarkUp — a probe must not resurrect a
// box an operator is working on. The drained shard's devices are
// migrated to their new owners (a drain is planned, so the box is
// still reachable and hands its state over; see migrate).
func (g *Gateway) MarkDown(i int) {
	g.setDown(i, true)
}

// MarkUp restores the shard to routing and clears the operator pin.
// Keys that moved away while it was down move back to exactly their
// original owner: the ring never changed, only the skip set. State the
// temporary owners accumulated moves back with them, so the restored
// shard resumes each device's debounce and dwell where the stand-in
// left off — and the stand-ins stop reporting the device (no stale
// residue inflating the federated count).
func (g *Gateway) MarkUp(i int) {
	g.setDown(i, false)
}

// setDown applies one operator routing change and migrates device
// state across the resulting ownership diff. migrateMu is held across
// the flip AND its migration (acquired before g.mu, never inside it):
// concurrent routing changes — an operator MarkDown racing a probe
// transition — must apply their migrations in the same order as their
// flips, or a stale ownership diff could re-install state onto a
// shard another change just drained.
func (g *Gateway) setDown(i int, down bool) {
	g.migrateMu.Lock()
	defer g.migrateMu.Unlock()
	if i < 0 || i >= len(g.shards) {
		return
	}
	g.applyRoutingChange(func() {
		g.down[i] = down
		g.pinned[i] = down
	})
}

// move is one device's reassignment across a routing change.
type move struct {
	dev      string
	from, to int
}

// applyRoutingChange is the fenced handover protocol — pause → drain →
// move → resume — that makes device migration exact instead of
// self-healing-via-TTL. change mutates g.down (and g.pinned) in place
// under the exclusive routing lock; the new down set is returned.
//
// Under that same exclusive hold the ownership diff is computed and a
// fence is raised for every reassigned device. This one critical
// section closes the two one-report-wide race windows the unfenced
// migration had: no report can resolve an owner under the new table
// before its device's fence is up (so nothing reaches the new owner
// ahead of the install and gets overwritten), and the registry
// snapshot is complete — a report routed under the old table
// registered inside its own shared hold of the routing lock, which
// strictly precedes this exclusive one (so nothing lands on the old
// owner after its eviction).
//
// After the flip, in-flight deliveries for the moving devices are
// drained to zero, each device's state is evicted from its old owner
// and installed on the new one, and the fences lift — paused reports
// then re-resolve routing and land on the new owner, after its state.
//
// Migration remains best effort against dead boxes: an unreachable old
// owner (crash rather than drain) cannot be migrated from, so the new
// owner rebuilds the device from its report stream and whatever
// residue the dead box still holds is reconciled when it returns —
// migrated back by the fail-back rebalance, or aged out by the TTL
// sweep. Callers hold migrateMu.
func (g *Gateway) applyRoutingChange(change func()) []bool {
	g.mu.Lock()
	oldDown := append([]bool(nil), g.down...)
	change()
	newDown := append([]bool(nil), g.down...)
	changed := false
	for i := range oldDown {
		if oldDown[i] != newDown[i] {
			changed = true
			break
		}
	}
	if !changed {
		g.mu.Unlock()
		return newDown
	}
	// The routing inputs changed, so the pre-split contract token must
	// change with them — under the same exclusive hold, so no pre-split
	// upload can match the new digest against the old table or vice
	// versa.
	g.digest = g.ring.Digest(newDown)
	// Registry snapshot under the exclusive routing hold: complete
	// w.r.t. every report ever routed under the old table.
	g.devMu.Lock()
	devices := make([]string, 0, len(g.known))
	for d := range g.known {
		devices = append(devices, d)
	}
	g.devMu.Unlock()
	sort.Strings(devices)
	var moves []move
	for _, dev := range devices {
		h := ring.Hash64(dev)
		from, errFrom := g.ownerWith(oldDown, h)
		to, errTo := g.ownerWith(newDown, h)
		if errFrom != nil || errTo != nil || from == to {
			continue
		}
		moves = append(moves, move{dev: dev, from: from, to: to})
		g.fenced[dev] = &fence{done: make(chan struct{})}
	}
	g.mu.Unlock()
	gm := g.met
	if gm != nil {
		for i := range oldDown {
			if oldDown[i] == newDown[i] {
				continue
			}
			kind := obs.EventShardUp
			if newDown[i] {
				kind = obs.EventShardDown
			}
			gm.rec.Record(kind, map[string]any{"shard": g.shards[i].Name()})
		}
	}
	if len(moves) == 0 {
		return newDown
	}
	var migStart time.Time
	if gm != nil {
		migStart = time.Now()
	}
	g.drainMoves(moves)
	g.migrate(moves)
	g.resume(moves)
	if gm != nil {
		gm.migrations.Add(uint64(len(moves)))
		gm.migrateTime.Since(migStart)
		gm.rec.Record(obs.EventMigration, map[string]any{"devices": len(moves)})
	}
	return newDown
}

// drainMoves waits until no shard delivery is in flight for any moving
// device. New deliveries for those devices are already paused on their
// fences, so the counts can only fall.
func (g *Gateway) drainMoves(moves []move) {
	g.devMu.Lock()
	for _, m := range moves {
		for g.flight[m.dev] > 0 {
			g.flightCond.Wait()
		}
	}
	g.devMu.Unlock()
}

// migrate executes the evict→install pairs. Each device's pair stays
// sequential (the mark must leave before it lands), but devices move
// concurrently under a bounded pool: a remote-shard rebalance costs
// O(moves/width × RTT), not one round trip per device in sequence.
// Devices are disjoint and ingest for each is fenced, so the
// concurrent execution is deterministic in effect.
func (g *Gateway) migrate(moves []move) {
	width := migrateConcurrency
	if width > len(moves) {
		width = len(moves)
	}
	var wg sync.WaitGroup
	next := make(chan move)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range next {
				st, ok, err := g.shards[m.from].EvictDevice(m.dev)
				if err != nil || !ok {
					continue // nothing to hand over; the new owner rebuilds
				}
				// A failed install drops the state too — the new owner
				// then rebuilds from the stream, the same degraded path
				// as an unreachable old owner.
				_ = g.shards[m.to].InstallDevice(st)
			}
		}()
	}
	for _, m := range moves {
		next <- m
	}
	close(next)
	wg.Wait()
}

// resume lifts the moving devices' fences; paused reports re-resolve
// routing against the new table.
func (g *Gateway) resume(moves []move) {
	g.mu.Lock()
	for _, m := range moves {
		if f, ok := g.fenced[m.dev]; ok {
			close(f.done)
			delete(g.fenced, m.dev)
		}
	}
	g.mu.Unlock()
}

// migrateConcurrency bounds the parallel evict/install pairs one
// rebalance runs at a time.
const migrateConcurrency = 16

// RebuildRegistry repopulates the gateway's device registry — the names
// only — from the shards' own recovered device sets: the restart path
// that lets the gateway itself persist nothing. The report high-water
// mark is not rebuilt; the next routed report sets it again. A fresh
// gateway over durable shards calls this once at boot; a device any shard
// still holds state for is then visible to the next rebalance migration
// and TTL sweep, exactly as if this gateway had routed its reports. Down
// shards are skipped (their devices surface when they recover or
// re-report through the new owner); per-shard errors are joined but do
// not abort the rebuild — the registry is additive, so a partial rebuild
// is strictly better than none.
func (g *Gateway) RebuildRegistry() (devices int, err error) {
	healthy := g.unmarked(g.down)
	perShard, errs := gather(g, healthy, Shard.Devices)
	g.devMu.Lock()
	for k, devs := range perShard {
		if errs[k] != nil {
			continue
		}
		for _, d := range devs {
			g.known[d] = d
		}
	}
	devices = len(g.known)
	g.devMu.Unlock()
	return devices, g.joined(healthy, errs)
}

// Statuses returns the current routing view without probing.
func (g *Gateway) Statuses() []ShardStatus {
	g.mu.RLock()
	down := append([]bool(nil), g.down...)
	g.mu.RUnlock()
	out := make([]ShardStatus, len(g.shards))
	for i := range out {
		out[i] = g.status(i, down[i], nil)
	}
	return out
}

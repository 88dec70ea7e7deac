// Gateway leadership over shard-quorum leases.
//
// The fleet has no external coordinator: the shards themselves arbitrate
// which gateway leads. Each bms.Server durably records the highest
// leadership epoch it has granted (see bms.Server.GrantLease) and fences
// every write stamped with an older one. A gateway leads once a MAJORITY
// of shards grant it the same epoch — two gateways can never both hold a
// majority at one epoch, because each shard grants an epoch to a single
// holder. Leadership is therefore exactly as durable and as partitioned
// as the data it protects, which is the point: a "leader" that cannot
// reach a shard quorum could not have ingested anyway.
//
// The controller runs one gateway's side of the protocol:
//
//	claim   — bid epoch e+1 on every shard; leading means a quorum
//	          granted e+1. Losing to a higher grant re-bids above it.
//	renew   — re-claim the SAME epoch before TTL elapses (shards treat
//	          an equal-epoch claim by the same holder as a heartbeat).
//	standby — probe the active peer; after missedProbes consecutive
//	          failures, claim. On winning, rebuild the device registry
//	          from the shards (the deposed leader's routing memory) and
//	          start serving writes.
//	depose  — a renewal that loses quorum, or any shard write fenced
//	          with transport.ErrStaleLeader, steps this gateway down to
//	          standby. Its in-flight writes are already fenced shard-
//	          side; stepping down just stops the futile dispatching.
package fleet

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"occusim/internal/transport"
)

// claimMaxRounds bounds re-bidding within ONE Claim call when higher
// grants keep appearing — e.g. racing the other gateway's claim. Losing
// every round means the peer is winning; stay standby and let the probe
// loop decide when to try again.
const claimMaxRounds = 4

// missedProbes is how many consecutive probe failures depose a silent
// active.
const missedProbes = 2

// LeaseConfig parameterises a LeaseController.
type LeaseConfig struct {
	// Self is the URL this gateway advertises as leader hint (how
	// clients and the peer reach it). Required.
	Self string
	// Peer is the partner gateway's URL — what a standby probes, and
	// the fallback leader hint. Empty means no peer (a solo gateway
	// that still wants fencing against its own earlier incarnations).
	Peer string
	// TTL is the leadership lease duration: the active renews (and a
	// standby probes) every TTL/3, and a standby needs missedProbes
	// consecutive probe failures — at least 2·TTL/3 of silence — before
	// it claims. Default 3s.
	TTL time.Duration
	// Probe overrides how a standby checks the active peer (tests). The
	// default GETs Peer's /api/v1/health with a TTL/3 timeout.
	Probe func() error
}

// LeaseController drives one gateway's leadership claims, renewals and
// standby probes against the gateway's own shard set. Safe for
// concurrent use; Run owns the clock, but Claim and Renew may also
// be called directly (tests, operator tooling).
type LeaseController struct {
	gw     *Gateway
	cfg    LeaseConfig
	quorum int

	mu     sync.Mutex
	epoch  uint64 // highest epoch this controller has bid
	active bool
	holder string // last observed leaseholder (hint for clients)
	misses int    // consecutive standby probe failures
}

// NewLeaseController builds a controller for gw. It does NOT claim;
// call Claim (active bootstrap) or Run with standby probing.
func NewLeaseController(gw *Gateway, cfg LeaseConfig) (*LeaseController, error) {
	if gw == nil {
		return nil, fmt.Errorf("fleet: lease controller needs a gateway")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("fleet: lease controller needs a self URL (the leader hint)")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * time.Second
	}
	return &LeaseController{
		gw:     gw,
		cfg:    cfg,
		quorum: len(gw.shards)/2 + 1,
	}, nil
}

// Active reports whether this gateway currently believes it leads.
// Shard-side fencing stays authoritative — a true here can be a zombie's
// stale belief, and its writes still bounce.
func (c *LeaseController) Active() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}

// Epoch returns the controller's leadership epoch when active, else the
// highest epoch it has bid.
func (c *LeaseController) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// LeaderHint returns where this gateway believes leadership lives: its
// own Self URL when active, the last observed holder otherwise, falling
// back to the configured peer.
func (c *LeaseController) LeaderHint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active {
		return c.cfg.Self
	}
	if c.holder != "" && c.holder != c.cfg.Self {
		return c.holder
	}
	return c.cfg.Peer
}

// claimRound bids epoch on every shard in one round. granted counts
// shards that granted exactly this epoch to us; maxSeen/holder report
// the highest competing grant observed (for re-bidding above it) — a
// grant to us is not a competing one, so a round short of quorum only
// because shards are unreachable is not mistaken for being outbid.
func (c *LeaseController) claimRound(epoch uint64) (granted int, maxSeen uint64, holder string) {
	type grant struct {
		epoch  uint64
		holder string
	}
	grants, errs := gather(c.gw, c.gw.unmarked(nil), func(s Shard) (grant, error) {
		g, h, err := s.Claim(epoch, c.cfg.Self)
		return grant{g, h}, err
	})
	for k, gr := range grants {
		// A stale rejection still reports the winning grant; any other
		// error (shard down, decode) simply isn't a grant.
		if errs[k] == nil && gr.epoch == epoch {
			granted++
		} else if gr.epoch > maxSeen {
			maxSeen, holder = gr.epoch, gr.holder
		}
	}
	return granted, maxSeen, holder
}

// Claim bids for leadership at the next epoch, re-bidding above any
// higher grant it observes. On winning a quorum it stamps the epoch on
// every shard client, rebuilds the device registry from the shards
// (adopting the deposed leader's routing memory), and goes active.
func (c *LeaseController) Claim() error {
	c.mu.Lock()
	target := c.epoch + 1
	c.mu.Unlock()

	for round := 0; round < claimMaxRounds; round++ {
		granted, maxSeen, holder := c.claimRound(target)
		if granted >= c.quorum {
			c.mu.Lock()
			c.epoch = target
			wasActive := c.active
			c.active = true
			c.holder = c.cfg.Self
			c.misses = 0
			c.mu.Unlock()
			// Stamp BEFORE serving: every write from here carries the
			// winning epoch, and the deposed leader's carry epochs below
			// the quorum's grant.
			c.gw.SetEpoch(target)
			if !wasActive {
				// Best-effort: the registry feeds migration and TTL
				// sweeps; ingest itself re-learns devices as they report.
				if _, err := c.gw.RebuildRegistry(); err != nil {
					return fmt.Errorf("fleet: lease claimed at epoch %d but registry rebuild failed: %w", target, err)
				}
			}
			return nil
		}
		c.mu.Lock()
		if target > c.epoch {
			c.epoch = target // never re-bid below an epoch we already burned
		}
		if holder != "" {
			c.holder = holder
		}
		c.mu.Unlock()
		if maxSeen >= target {
			// Outbid: someone holds a grant at or above our bid. Bid
			// above the highest grant seen anywhere.
			target = maxSeen + 1
			continue
		}
		// Not outbid, just short of quorum — too many shards down.
		return fmt.Errorf("fleet: lease claim at epoch %d won %d/%d shards (quorum %d)",
			target, granted, len(c.gw.shards), c.quorum)
	}
	return fmt.Errorf("fleet: lease claim lost %d bidding rounds; peer is winning", claimMaxRounds)
}

// Renew re-claims the current epoch (shards treat it as a heartbeat).
// Losing quorum — deposed by a higher grant, or shards unreachable —
// steps down.
func (c *LeaseController) Renew() error {
	c.mu.Lock()
	if !c.active {
		epoch := c.epoch
		c.mu.Unlock()
		return fmt.Errorf("fleet: renew while not leading (epoch %d)", epoch)
	}
	epoch := c.epoch
	c.mu.Unlock()

	granted, maxSeen, holder := c.claimRound(epoch)
	if granted >= c.quorum {
		return nil
	}
	c.stepDown(maxSeen, holder)
	return fmt.Errorf("fleet: lease renewal at epoch %d held %d/%d shards (quorum %d); stepping down",
		epoch, granted, len(c.gw.shards), c.quorum)
}

func (c *LeaseController) stepDown(seenEpoch uint64, holder string) {
	c.mu.Lock()
	c.active = false
	c.misses = 0
	if seenEpoch > c.epoch {
		c.epoch = seenEpoch
	}
	if holder != "" {
		c.holder = holder
	}
	c.mu.Unlock()
}

// ObserveStale inspects a dispatch error for shard-side fencing: a stale
// verdict at a higher grant than ours means a new leader has claimed, and
// this gateway is a zombie — step down and record the winner as the hint.
// Any other error grants nothing and is ignored.
func (c *LeaseController) ObserveStale(err error) {
	v := transport.Classify(err)
	c.mu.Lock()
	deposed := c.active && v.Granted > c.epoch
	c.mu.Unlock()
	if deposed {
		c.stepDown(v.Granted, v.Leader)
	}
}

// Run drives the lease loop until stop closes: renew while active,
// probe-then-claim while standby. Ticks at TTL/3 so two consecutive
// misses fit inside one TTL.
func (c *LeaseController) Run(stop <-chan struct{}) {
	tick := c.cfg.TTL / 3
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if c.Active() {
				_ = c.Renew() // deposed → stepDown already ran
				continue
			}
			if c.probe() == nil {
				c.mu.Lock()
				c.misses = 0
				c.mu.Unlock()
				continue
			}
			c.mu.Lock()
			c.misses++
			claim := c.misses >= missedProbes
			c.mu.Unlock()
			if claim {
				_ = c.Claim() // losing keeps us standby; next miss retries
			}
		}
	}
}

// probe checks the active peer. No peer configured means nothing to
// defer to — treat as a miss so a solo standby claims after the grace.
func (c *LeaseController) probe() error {
	if c.cfg.Probe != nil {
		return c.cfg.Probe()
	}
	if c.cfg.Peer == "" {
		return fmt.Errorf("fleet: no peer to probe")
	}
	client := &http.Client{Timeout: c.cfg.TTL / 3}
	_, err := transport.GetJSON(client, c.cfg.Peer+"/api/v1/health", transport.RetryPolicy{})
	return err
}

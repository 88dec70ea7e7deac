// Package scenario is a library of adversarial fleet workloads, each
// paired with a ground-truth oracle. A Scenario synthesises a hostile
// crowd — burst advertisers, diurnal waves, skewed clocks, duty-cycle
// droop, app kills, retransmit storms, gateway flapping — and the
// harness drives it through a real in-process fleet, then replays the
// honest equivalent of the same traffic into a clean single reference
// server and asserts the fleet converged to the same state. "make
// loadtest" runs the matrix; a scenario that cannot state what the
// correct end state is does not belong here.
//
// Three oracle strictness levels cover the library:
//
//   - Exact: the fleet's federated occupancy, events and dwell must be
//     byte-identical JSON to the reference. Used whenever the hostile
//     part is pure delivery mischief (duplication, batching, flapping)
//     that exactly-once ingest is supposed to erase completely.
//   - ExactAfterSweep: as Exact, but the reference first expires
//     devices older than the residue TTL — the correct end state for
//     scenarios whose devices genuinely depart (app kill, diurnal
//     waves) and are swept as residue on both sides.
//   - Explained: set-based. Device→room placements, per-room head
//     counts, per-device event sequences (kind and room, times
//     excluded) and dwell totals must match, but event timestamps may
//     differ. Used for clock skew, where the gateway re-anchors a
//     lying device's timeline into the building frame: the shape of
//     the history is preserved, its absolute times cannot be.
package scenario

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/fleet/fleettest"
	"occusim/internal/overload"
	"occusim/internal/transport"
)

// Config sizes a scenario run. Zero fields take the defaults below —
// small enough for a CI smoke, large enough that every scenario's
// hostile mechanism actually fires (each test asserts non-vacuity).
type Config struct {
	Devices int    // simulated handsets (default 12)
	Reports int    // reports per device before hostile editing (default 60)
	Shards  int    // fleet shard count (default 2)
	Seed    uint64 // stream synthesis seed (default 11)
	Epoch   uint64 // device epoch stamped on sequenced reports (default 1)
	Repeat  int    // whole-batch duplication factor for storm-class scenarios (default 3)
}

func (c Config) withDefaults() Config {
	if c.Devices == 0 {
		c.Devices = 12
	}
	if c.Reports == 0 {
		c.Reports = 60
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.Repeat == 0 {
		c.Repeat = 3
	}
	return c
}

// OracleMode selects how strictly the fleet's end state is compared
// with the reference server's.
type OracleMode int

const (
	Exact OracleMode = iota
	ExactAfterSweep
	Explained
)

func (m OracleMode) String() string {
	switch m {
	case Exact:
		return "exact"
	case ExactAfterSweep:
		return "exact-after-sweep"
	case Explained:
		return "explained"
	default:
		return fmt.Sprintf("oracle(%d)", int(m))
	}
}

// Batch is one uplink exchange: a run of reports delivered together,
// possibly several times (Repeat > 1 models a NAT box retransmitting a
// whole batch), to one of the run's gateways.
type Batch struct {
	Reports []transport.Report
	Gateway int // index into the run's gateways
	Repeat  int // total deliveries of this batch; 0 or 1 means once
}

// Lane is one device's uplink: its batches are sent in order, but
// lanes run concurrently against the fleet like real handsets.
type Lane struct {
	Batches []Batch
}

// Traffic is what a generator hands the harness: the hostile delivery
// plan, the honest streams the oracle replays into the reference, and
// the fleet configuration the scenario needs (admission limits, skew
// window, residue TTL).
type Traffic struct {
	Lanes    []Lane
	Honest   [][]transport.Report
	Fleet    fleet.Config
	Gateways int // gateways over the shared shard pool (default 1)
	// ShardDelay slows every shard ingest call by this much — the slow
	// backend that makes admission limits bite in-process. Without it a
	// local shard answers in microseconds and a storm can never
	// actually overload the gate.
	ShardDelay time.Duration
}

// Scenario is one adversarial workload plus its oracle.
type Scenario struct {
	Name        string
	Description string
	Plan        string // floor plan (default "paper-house")
	Oracle      OracleMode
	Generate    func(b *building.Building, cfg Config) (*Traffic, error)
}

// Result summarises a verified run.
type Result struct {
	Scenario     string
	Oracle       string
	Devices      int
	Unique       int    // distinct reports offered
	Sent         int    // deliveries including Repeat duplicates (not shed retries)
	Duplicates   int    // Sent - Unique
	Admitted     uint64 // batches admitted across gateways
	Shed         uint64 // batches shed with overload across gateways
	SkewAdjusted uint64 // reports whose timestamps were re-anchored
}

func (r *Result) String() string {
	return fmt.Sprintf("scenario %s: %d devices, %d reports (+%d duplicate), shed %d, skew-adjusted %d — verified %s",
		r.Scenario, r.Devices, r.Unique, r.Duplicates, r.Shed, r.SkewAdjusted, r.Oracle)
}

// maxAttempts bounds shed-retry loops; an in-process fleet that cannot
// admit a batch in this many tries is wedged, not overloaded.
const maxAttempts = 500

// Run builds the scenario's fleet, drives the hostile traffic through
// it (retrying shed batches, as a compliant device would), and checks
// the end state against the oracle. Any divergence is returned as an
// error carrying both sides.
func Run(sc Scenario, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plan := sc.Plan
	if plan == "" {
		plan = "paper-house"
	}
	b, err := building.ByName(plan)
	if err != nil {
		return nil, err
	}
	tr, err := sc.Generate(b, cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}

	pool, err := fleet.NewLocalPool(b, cfg.Shards, 2, 1000)
	if err != nil {
		return nil, err
	}
	ring := pool.Shards
	var slowed []*fleettest.SlowShard
	if tr.ShardDelay > 0 {
		ring = make([]fleet.Shard, len(pool.Shards))
		for i, s := range pool.Shards {
			slowed = append(slowed, &fleettest.SlowShard{Shard: s, Delay: tr.ShardDelay})
			ring[i] = slowed[i]
		}
	}
	nGW := tr.Gateways
	if nGW == 0 {
		nGW = 1
	}
	gws := make([]*fleet.Gateway, nGW)
	for i := range gws {
		if gws[i], err = fleet.New(ring, tr.Fleet); err != nil {
			return nil, err
		}
	}
	if len(b.Rooms) >= 2 {
		// Train once, distribute through any gateway: the shards are
		// shared, so every gateway classifies with the same model.
		if err := experiments.TrainAndDistribute(gws[0], b, cfg.Seed); err != nil {
			return nil, err
		}
	}

	// Stamp sequence numbers up front, in lane order, so retransmitted
	// batches carry the exact bytes of the originals — the shards'
	// dedup key.
	seq := transport.NewSequencer(cfg.Epoch)
	unique, sent := 0, 0
	for li := range tr.Lanes {
		for bi := range tr.Lanes[li].Batches {
			bt := &tr.Lanes[li].Batches[bi]
			if bt.Gateway < 0 || bt.Gateway >= nGW {
				return nil, fmt.Errorf("scenario %s: batch targets gateway %d of %d", sc.Name, bt.Gateway, nGW)
			}
			for ri := range bt.Reports {
				seq.Stamp(&bt.Reports[ri])
			}
			n := bt.Repeat
			if n < 1 {
				n = 1
			}
			unique += len(bt.Reports)
			sent += n * len(bt.Reports)
		}
	}

	// The measured run: every lane is its own goroutine, like the crowd
	// it models.
	errs := make([]error, len(tr.Lanes))
	var wg sync.WaitGroup
	for li := range tr.Lanes {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			errs[li] = deliver(gws, tr.Lanes[li])
		}(li)
	}
	wg.Wait()
	for li, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %s: lane %d: %w", sc.Name, li, err)
		}
	}

	res := &Result{
		Scenario:   sc.Name,
		Oracle:     sc.Oracle.String(),
		Devices:    cfg.Devices,
		Unique:     unique,
		Sent:       sent,
		Duplicates: sent - unique,
	}
	for _, gw := range gws {
		admitted, shed := gw.AdmissionStats()
		res.Admitted += admitted
		res.Shed += shed
		res.SkewAdjusted += gw.SkewAdjusted()
	}
	if len(slowed) > 0 && !slices.ContainsFunc(slowed, func(s *fleettest.SlowShard) bool { return s.Slept() > 0 }) {
		return nil, fmt.Errorf("scenario %s: vacuous: no delivery went through the slowed shards", sc.Name)
	}
	if err := verify(sc, b, gws[0], tr, cfg); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return res, nil
}

// deliver sends one lane's batches in order, honouring shed hints the
// way a compliant handset does: back off for the advertised window and
// retransmit the identical bytes.
func deliver(gws []*fleet.Gateway, lane Lane) error {
	for _, bt := range lane.Batches {
		n := bt.Repeat
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			if err := sendWithRetry(gws[bt.Gateway], bt.Reports); err != nil {
				return err
			}
		}
	}
	return nil
}

func sendWithRetry(gw *fleet.Gateway, reports []transport.Report) error {
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if _, err = gw.IngestBatch(reports); err == nil {
			return nil
		}
		after, ok := overload.IsOverload(err)
		if !ok {
			return err
		}
		// In-process fleets drain in microseconds; cap the advertised
		// wait so scenario runs stay CI-sized.
		if after > 5*time.Millisecond {
			after = 5 * time.Millisecond
		}
		time.Sleep(after)
	}
	return fmt.Errorf("batch never admitted after %d attempts: %w", maxAttempts, err)
}

// All returns the scenario library in matrix order.
func All() []Scenario {
	return []Scenario{
		Clean(),
		Burst(),
		Diurnal(),
		Skew(),
		Droop(),
		AppKill(),
		Storm(),
		Flap(),
	}
}

// ByName resolves a scenario by its CLI name.
func ByName(name string) (Scenario, error) {
	for _, sc := range All() {
		if sc.Name == name {
			return sc, nil
		}
	}
	names := make([]string, 0, len(All()))
	for _, sc := range All() {
		names = append(names, sc.Name)
	}
	return Scenario{}, fmt.Errorf("scenario: unknown %q (want one of %v)", name, names)
}

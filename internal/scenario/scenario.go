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
// It is also the one crowd harness: Build turns a Spec into a trained
// fleet, Driver.Drive sends lanes into it, Fleet.Verify holds the end
// state to the Reference. Run is those three after a generator;
// cmd/loadgen's drills are the same three around what only they have.
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

	"occusim/internal/building"
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
// the fleet the scenario needs — admission limits, skew window, residue
// TTL, a second gateway, slowed shards; the caller fills in the rest.
type Traffic struct {
	Lanes  []Lane
	Honest [][]transport.Report
	Spec   Spec
	// FinalRoom is the room each device's schedule ends in — the
	// placement ground truth of generators that deliver whole streams.
	FinalRoom []string
}

// Scenario is one adversarial workload plus its oracle.
type Scenario struct {
	Name        string
	Description string
	Plan        string // floor plan (default "paper-house")
	Oracle      OracleMode
	Generate    func(b *building.Building, cfg Config) (*Traffic, error)
}

// Result summarises a verified run: what the drive counted, what the
// gateways counted, and the end state the oracle accepted.
type Result struct {
	Scenario string
	Oracle   string
	Devices  int
	*Driven
	Duplicates   int    // Sent - Unique
	Shed         uint64 // batches shed with overload across gateways
	SkewAdjusted uint64 // reports whose timestamps were re-anchored
	Outcome
}

func (r *Result) String() string {
	return fmt.Sprintf("scenario %s: %d devices, %d reports (+%d duplicate), shed %d, skew-adjusted %d — verified %s",
		r.Scenario, r.Devices, r.Unique, r.Duplicates, r.Shed, r.SkewAdjusted, r.Oracle)
}

// crowd is a scenario's traffic beside the fleet built for it.
type crowd struct {
	*Fleet
	tr *Traffic
}

// newCrowd generates sc's traffic on its floor plan and builds the
// fleet it runs against: what the traffic needs, cfg.Shards wide.
func newCrowd(sc Scenario, cfg Config) (*crowd, error) {
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
	tr.Spec.Shards = cfg.Shards
	f, err := Build(b, tr.Spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &crowd{f, tr}, nil
}

// Run is the harness end to end: generate the scenario's crowd, build
// its fleet, drive the lanes through the gateways in process and check
// the end state against the oracle. Any divergence is returned as an
// error carrying both sides.
func Run(sc Scenario, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	c, err := newCrowd(sc, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc.Name, Oracle: sc.Oracle.String(), Devices: cfg.Devices}
	res.Driven, err = Driver{Epoch: cfg.Epoch}.Drive(c.tr.Lanes, c.Sinks()...)
	res.Duplicates = res.Sent - res.Unique
	for _, gw := range c.Gateways {
		_, shed := gw.AdmissionStats()
		res.Shed += shed
		res.SkewAdjusted += gw.SkewAdjusted()
	}
	if err == nil {
		res.Outcome, err = c.outcome(sc.Oracle)
	}
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return res, nil
}

// Outcome is the end state of a verified crowd: the devices the fleet
// tracks, the transitions it committed, and — where the traffic knows
// it — the share of devices whose committed room is the one their
// schedule ends in.
type Outcome struct {
	DevicesTracked    int
	EventsCommitted   int
	PlacementAccuracy float64
}

// outcome holds the fleet to the oracle and reads what it ended at.
func (c *crowd) outcome(mode OracleMode) (out Outcome, err error) {
	gw := c.Gateways[0]
	if err := c.Verify(gw, mode, c.tr.Honest); err != nil {
		return out, err
	}
	snap, err := gw.Occupancy()
	if err != nil {
		return out, err
	}
	events, err := gw.Events()
	if err != nil {
		return out, err
	}
	out = Outcome{DevicesTracked: len(snap.Devices), EventsCommitted: len(events)}
	hits := 0
	for d, room := range c.tr.FinalRoom {
		if snap.Devices[c.tr.Honest[d][0].Device] == room {
			hits++
		}
	}
	if hits > 0 {
		out.PlacementAccuracy = float64(hits) / float64(len(c.tr.FinalRoom))
	}
	return out, nil
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

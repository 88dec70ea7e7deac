// Package core composes the paper's contribution end to end: it wires
// the simulated building, radio channel and BLE world to the client-side
// ranging pipeline (scanner → history filter → reporting) and the
// server-side inference pipeline (ingest → scene-analysis classification
// → occupancy tracking), and provides the workloads the evaluation needs:
// the fingerprint collection walk, the labelled test walk, and the full
// classification trial of Figure 9.
package core

import (
	"fmt"
	"time"

	"occusim/internal/app"
	"occusim/internal/ble"
	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/device"
	"occusim/internal/energy"
	"occusim/internal/filter"
	"occusim/internal/fingerprint"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/rng"
	"occusim/internal/scanner"
	"occusim/internal/sim"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// DefaultAdvInterval reproduces the paper's transmitter rate: ≈30
// advertisements per second once the spec's 0–10 ms advDelay jitter is
// included.
const DefaultAdvInterval = 28 * time.Millisecond

// ScenarioConfig describes one simulated deployment.
type ScenarioConfig struct {
	// Building is the instrumented floor plan. Required.
	Building *building.Building
	// Radio defaults to radio.DefaultIndoor() when zero.
	Radio radio.Params
	// AdvInterval defaults to DefaultAdvInterval.
	AdvInterval time.Duration
	// Seed drives every random draw in the scenario.
	Seed uint64
	// TrackerDebounce configures the BMS occupancy tracker (default 2).
	TrackerDebounce int
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Radio == (radio.Params{}) {
		c.Radio = radio.DefaultIndoor()
	}
	if c.AdvInterval == 0 {
		c.AdvInterval = DefaultAdvInterval
	}
	if c.TrackerDebounce == 0 {
		c.TrackerDebounce = 2
	}
	return c
}

// Scenario is a running deployment: beacons advertising in a building,
// an in-process BMS, and any number of phones.
type Scenario struct {
	cfg    ScenarioConfig
	engine *sim.Engine
	world  *ble.World
	server *bms.Server
	src    *rng.Source

	phones int
}

// NewScenario builds the deployment: one advertiser per building beacon,
// the radio channel over the building's walls, and a BMS server.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	cfg = cfg.withDefaults()
	if cfg.Building == nil {
		return nil, fmt.Errorf("core: scenario needs a building")
	}
	if err := cfg.Building.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	channel, err := radio.NewChannel(cfg.Radio, cfg.Building.Walls, cfg.Seed)
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine()
	world := ble.NewWorld(engine, channel, cfg.Seed^0xB1E55ED)
	st, err := store.New(10000)
	if err != nil {
		return nil, err
	}
	server, err := bms.NewServer(cfg.Building, st, cfg.TrackerDebounce)
	if err != nil {
		return nil, err
	}
	s := &Scenario{
		cfg:    cfg,
		engine: engine,
		world:  world,
		server: server,
		src:    rng.New(cfg.Seed ^ 0x5CE9A410),
	}
	for _, bc := range cfg.Building.Beacons {
		pkt := bc.Packet()
		if err := world.AddAdvertiser(&ble.Advertiser{
			Name:         bc.ID.String(),
			Payload:      pkt.Marshal(),
			LinkID:       bc.ID.Hash64(),
			PowerAt1mDBm: bc.TxPowerDBm,
			Interval:     cfg.AdvInterval,
			Pos:          bc.Pos,
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Building returns the scenario's floor plan.
func (s *Scenario) Building() *building.Building { return s.cfg.Building }

// World returns the BLE world.
func (s *Scenario) World() *ble.World { return s.world }

// Server returns the in-process BMS.
func (s *Scenario) Server() *bms.Server { return s.server }

// Now returns the current simulated time.
func (s *Scenario) Now() time.Duration { return s.engine.Now() }

// Run advances simulated time by d.
func (s *Scenario) Run(d time.Duration) { s.world.Run(d) }

// ServerUplink returns an uplink that delivers reports straight into the
// in-process BMS, standing in for the Wi-Fi HTTP path without a socket.
func (s *Scenario) ServerUplink() transport.Uplink {
	return bms.DirectUplink{Server: s.server}
}

// ServerBatchUplink returns the crowd-scale report path: a coalescing
// uplink whose batches land in Server.IngestBatch in one pass. Reports
// acknowledge immediately on Send and are delivered at the flush cadence
// (cfg zero values take the transport defaults).
func (s *Scenario) ServerBatchUplink(cfg transport.BatchConfig) (*transport.BatchingUplink, error) {
	return transport.NewBatchingUplink(bms.DirectUplink{Server: s.server}, cfg)
}

// BTRelayUplink returns the Bluetooth path: a flaky BLE hop into the
// beacon board which forwards to the BMS.
func (s *Scenario) BTRelayUplink(dropProb float64) (transport.Uplink, error) {
	s.phones++
	return transport.NewBTRelay(s.ServerUplink(), dropProb, s.src.Split(uint64(900+s.phones)))
}

// PhoneConfig configures AddPhone.
type PhoneConfig struct {
	// Profile defaults to the Galaxy S3 Mini.
	Profile device.Profile
	// ScanPeriod defaults to the paper's 2 s.
	ScanPeriod time.Duration
	// Uplink defaults to the in-process server uplink.
	Uplink transport.Uplink
	// UplinkKind defaults to Wi-Fi energy accounting.
	UplinkKind energy.Uplink
	// MotionGate enables the accelerometer optimisation.
	MotionGate bool
}

// paperScanPeriod is the scan period of the paper's configuration.
const paperScanPeriod = 2 * time.Second

func (s *Scenario) phoneDefaults(pc PhoneConfig) PhoneConfig {
	if pc.Profile.Model == "" {
		pc.Profile = device.GalaxyS3Mini()
	}
	if pc.ScanPeriod == 0 {
		pc.ScanPeriod = paperScanPeriod
	}
	if pc.Uplink == nil {
		pc.Uplink = s.ServerUplink()
	}
	return pc
}

// AddPhone launches a client app in the deployment.
func (s *Scenario) AddPhone(name string, m mobility.Model, pc PhoneConfig) (*app.App, error) {
	pc = s.phoneDefaults(pc)
	s.phones++
	return app.Launch(s.world, name, m, app.Config{
		Profile:    pc.Profile,
		Power:      energy.DefaultAppProfile(),
		ScanPeriod: pc.ScanPeriod,
		Region:     ibeacon.NewRegion(deploymentUUID(s.cfg.Building)),
		Filter:     filter.PaperConfig(),
		Uplink:     pc.Uplink,
		UplinkKind: pc.UplinkKind,
		MotionGate: pc.MotionGate,
	}, s.src.Split(uint64(s.phones)))
}

// deploymentUUID returns the region UUID shared by the building beacons
// (falling back to the library default for empty plans).
func deploymentUUID(b *building.Building) ibeacon.UUID {
	if len(b.Beacons) > 0 {
		return b.Beacons[0].ID.UUID
	}
	return building.DeploymentUUID
}

// OutsideArea returns a survey/walk area just outside the building's
// east wall (where the pre-built plans put the entrance).
func OutsideArea(b *building.Building) geom.Rect {
	bounds := b.Bounds()
	return geom.NewRect(
		geom.Pt(bounds.Max.X+0.4, bounds.Min.Y),
		geom.Pt(bounds.Max.X+3.4, bounds.Max.Y),
	)
}

// CollectConfig parameterises the fingerprint collection walk. The
// operator carries the paper's handset (a Galaxy S3 Mini scanning every
// 2 s under the paper's filter) at walkingSpeed.
type CollectConfig struct {
	// PointsPerRoom is the number of survey points per room (default 6,
	// max 9).
	PointsPerRoom int
	// DwellPerPoint is how long the operator stands at each point
	// (default 10 s).
	DwellPerPoint time.Duration
	// IncludeOutside adds survey points outside the entrance, labelled
	// building.Outside.
	IncludeOutside bool
}

// walkingSpeed is the operator's walking speed in m/s.
const walkingSpeed = 1.2

func (c CollectConfig) withDefaults() CollectConfig {
	if c.PointsPerRoom == 0 {
		c.PointsPerRoom = 6
	}
	if c.DwellPerPoint == 0 {
		c.DwellPerPoint = 10 * time.Second
	}
	return c
}

// surveyFractions are the in-room positions of survey points, as
// fractions of the room extent.
var surveyFractions = [9][2]float64{
	{0.5, 0.5}, {0.25, 0.25}, {0.75, 0.25}, {0.25, 0.75}, {0.75, 0.75},
	{0.5, 0.25}, {0.5, 0.75}, {0.25, 0.5}, {0.75, 0.5},
}

// surveyPoints returns the survey stops of one rectangular area.
func surveyPoints(r geom.Rect, n int, dwell time.Duration) []mobility.Stop {
	if n > len(surveyFractions) {
		n = len(surveyFractions)
	}
	stops := make([]mobility.Stop, 0, n)
	for i := 0; i < n; i++ {
		f := surveyFractions[i]
		stops = append(stops, mobility.Stop{
			P:     geom.Pt(r.Min.X+f[0]*r.Width(), r.Min.Y+f[1]*r.Height()),
			Dwell: dwell,
		})
	}
	return stops
}

// CollectFingerprints runs the operator's collection walk on the
// scenario and returns the labelled dataset. Only scan cycles during
// which the operator stayed in one room are recorded, mirroring an
// operator standing still while sampling.
func (s *Scenario) CollectFingerprints(cc CollectConfig) (*fingerprint.Dataset, error) {
	cc = cc.withDefaults()
	b := s.cfg.Building

	var stops []mobility.Stop
	for _, room := range b.Rooms {
		stops = append(stops, surveyPoints(room.Bounds, cc.PointsPerRoom, cc.DwellPerPoint)...)
	}
	if cc.IncludeOutside {
		// Outside is surveyed more sparsely than the rooms: the
		// operator cares most about in-room accuracy, and the lighter
		// outside prior biases residual errors towards false positives
		// (declaring a room while outside), which the paper prefers to
		// false negatives for comfort reasons.
		n := cc.PointsPerRoom / 2
		if n < 1 {
			n = 1
		}
		stops = append(stops, surveyPoints(OutsideArea(b), n, cc.DwellPerPoint)...)
	}
	walk, err := mobility.NewStops(stops, walkingSpeed)
	if err != nil {
		return nil, err
	}

	ids := beaconIDs(b)
	ds := fingerprint.New(ids)
	filt, err := filter.NewHistory(filter.PaperConfig())
	if err != nil {
		return nil, err
	}
	collecting := true
	start := s.engine.Now()
	s.phones++
	scn, err := scanner.Attach(s.world, fmt.Sprintf("collector-%d", s.phones), offsetModel{walk, start}, scanner.Config{
		Period:  paperScanPeriod,
		Profile: device.GalaxyS3Mini(),
		Region:  ibeacon.NewRegion(deploymentUUID(b)),
		OnCycle: func(c scanner.Cycle) {
			if !collecting {
				return
			}
			estimates := filt.Update(c.End, toObservations(c.Samples))
			if c.Dropped {
				return // the stack bug ate the cycle; nothing was measured
			}
			roomStart := b.RoomAt(walk.Position(c.Start - start))
			roomEnd := b.RoomAt(walk.Position(c.End - start))
			if roomStart != roomEnd {
				return // in transit between rooms: skip, as the operator would
			}
			ds.Add(fingerprint.FromEstimates(roomEnd, c.End, estimates))
		},
	}, s.src.Split(uint64(100+s.phones)))
	if err != nil {
		return nil, err
	}
	s.Run(walk.End() + paperScanPeriod)
	collecting = false
	// The operator leaves with the survey handset; stop sampling its
	// radio for the rest of the scenario.
	scn.Detach()
	return ds, nil
}

// WalkConfig parameterises the labelled test walk. The subject carries
// the paper's handset (a Galaxy S3 Mini scanning every 2 s under the
// paper's filter) on subjectWalk.
type WalkConfig struct {
	// Duration is the walk length (default 15 min).
	Duration time.Duration
	// IncludeOutside adds the outside area to the tour.
	IncludeOutside bool
}

// subjectWalk is the test subject's movement: they linger in each room
// long enough for the ranging filter to settle, as a person reporting "I
// am in the kitchen" does.
var subjectWalk = mobility.RandomWaypointConfig{
	SpeedMin: 1.0,
	SpeedMax: 1.5,
	PauseMin: 12 * time.Second,
	PauseMax: 40 * time.Second,
}

func (c WalkConfig) withDefaults() WalkConfig {
	if c.Duration == 0 {
		c.Duration = 15 * time.Minute
	}
	return c
}

// RunLabelledWalk simulates the test subject's tour ("we asked a user to
// move within a house and to indicate its actual location") and returns
// the dataset of filter outputs labelled with the ground-truth room at
// each scan cycle's end.
func (s *Scenario) RunLabelledWalk(wc WalkConfig) (*fingerprint.Dataset, error) {
	wc = wc.withDefaults()
	b := s.cfg.Building

	areas := make([]geom.Rect, 0, len(b.Rooms)+1)
	for _, r := range b.Rooms {
		// Inset so waypoints are not chosen exactly on walls.
		inset := geom.NewRect(
			geom.Pt(r.Bounds.Min.X+0.4, r.Bounds.Min.Y+0.4),
			geom.Pt(r.Bounds.Max.X-0.4, r.Bounds.Max.Y-0.4),
		)
		areas = append(areas, inset)
	}
	if wc.IncludeOutside {
		areas = append(areas, OutsideArea(b))
	}
	s.phones++
	tour, err := mobility.NewTour(areas, subjectWalk, wc.Duration, s.src.Split(uint64(200+s.phones)))
	if err != nil {
		return nil, err
	}
	start := s.engine.Now()

	ds := fingerprint.New(beaconIDs(b))
	filt, err := filter.NewHistory(filter.PaperConfig())
	if err != nil {
		return nil, err
	}
	walking := true
	lastRoom := ""
	settle := 0
	scn, err := scanner.Attach(s.world, fmt.Sprintf("subject-%d", s.phones), offsetModel{tour, start}, scanner.Config{
		Period:  paperScanPeriod,
		Profile: device.GalaxyS3Mini(),
		Region:  ibeacon.NewRegion(deploymentUUID(b)),
		OnCycle: func(c scanner.Cycle) {
			if !walking {
				return
			}
			estimates := filt.Update(c.End, toObservations(c.Samples))
			if c.Dropped {
				return // nothing measured this cycle
			}
			roomStart := b.RoomAt(tour.Position(c.Start - start))
			room := b.RoomAt(tour.Position(c.End - start))
			if roomStart != room || room != lastRoom {
				// Mid-transition, or the first cycle in a new room: the
				// subject reports their location once they are settled,
				// and the ranging history needs one cycle to re-centre.
				lastRoom = room
				settle = 1
				return
			}
			if settle > 0 {
				settle--
				return
			}
			ds.Add(fingerprint.FromEstimates(room, c.End, estimates))
		},
	}, s.src.Split(uint64(300+s.phones)))
	if err != nil {
		return nil, err
	}
	s.Run(wc.Duration)
	walking = false
	// The test subject's tour is over; stop sampling their radio.
	scn.Detach()
	return ds, nil
}

// beaconIDs lists the building's beacon identities in declaration order.
func beaconIDs(b *building.Building) []ibeacon.BeaconID {
	ids := make([]ibeacon.BeaconID, len(b.Beacons))
	for i, bc := range b.Beacons {
		ids[i] = bc.ID
	}
	return ids
}

// toObservations converts scanner samples to filter observations.
func toObservations(samples []scanner.Sample) []filter.Observation {
	obs := make([]filter.Observation, 0, len(samples))
	for _, s := range samples {
		obs = append(obs, filter.Observation{
			Beacon:        s.Beacon,
			RSSI:          s.RSSI,
			MeasuredPower: s.MeasuredPower,
		})
	}
	return obs
}

// offsetModel shifts a mobility model so that it starts at the given
// scenario time (mobility schedules are zero-based).
type offsetModel struct {
	m     mobility.Model
	start time.Duration
}

// Position implements mobility.Model.
func (o offsetModel) Position(t time.Duration) geom.Point { return o.m.Position(t - o.start) }

// End implements mobility.Model.
func (o offsetModel) End() time.Duration { return o.start + o.m.End() }

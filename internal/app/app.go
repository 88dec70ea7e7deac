// Package app models the Android client application of Section IV.C
// (Figure 3): a boot handler starts a background service, which turns on
// Bluetooth and runs the monitoring service; when the device enters a
// configured iBeacon region the ranging service runs, feeding the history
// filter of Section V and reporting the ranged beacons to the building
// server over the configured uplink. Every activity is charged to the
// device's battery through the energy meter, reproducing the Section VII
// measurements.
package app

import (
	"fmt"
	"time"

	"occusim/internal/ble"
	"occusim/internal/device"
	"occusim/internal/energy"
	"occusim/internal/filter"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/rng"
	"occusim/internal/scanner"
	"occusim/internal/transport"
)

// State is the application lifecycle state (Figure 3).
type State int

const (
	// Booting: the boot handler has not yet started the background
	// service.
	Booting State = iota
	// Monitoring: scanning for region entry, no beacons currently
	// ranged.
	Monitoring
	// Ranging: inside a region, ranging beacons and reporting.
	Ranging
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Booting:
		return "booting"
	case Monitoring:
		return "monitoring"
	case Ranging:
		return "ranging"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config parameterises one app instance.
type Config struct {
	// Profile is the handset model.
	Profile device.Profile
	// Power is the energy profile (DefaultAppProfile when zero-valued
	// fields would fail validation, callers should fill it explicitly).
	Power energy.AppProfile
	// ScanPeriod is the scan cycle length.
	ScanPeriod time.Duration
	// Region is the monitored iBeacon region; the app and the beacon
	// boards must be configured with the same UUID (Section IV.C).
	Region ibeacon.Region
	// Filter configures the history filter.
	Filter filter.Config
	// Uplink delivers reports to the BMS.
	Uplink transport.Uplink
	// UplinkKind selects the energy accounting of the channel.
	UplinkKind energy.Uplink
	// MotionGate enables the Section VIII future-work optimisation: use
	// the accelerometer to skip reporting (and duty-cycle sensing) while
	// the user is stationary.
	MotionGate bool
}

const (
	// queueLen and maxAttempts bound the retry queue.
	queueLen    = 16
	maxAttempts = 3
	// motionThreshold is the movement per cycle, in metres, that counts
	// as motion.
	motionThreshold = 0.5
	// bootDelay is the time from power-on to the background service
	// starting.
	bootDelay = 2 * time.Second
	// batteryLogPeriod is the measurement app's sampling period.
	batteryLogPeriod = time.Minute
)

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if c.ScanPeriod <= 0 {
		return fmt.Errorf("app: scan period must be positive, got %v", c.ScanPeriod)
	}
	if err := c.Region.Validate(); err != nil {
		return err
	}
	if err := c.Filter.Validate(); err != nil {
		return err
	}
	if c.Uplink == nil {
		return fmt.Errorf("app: uplink is required")
	}
	return nil
}

// Stats summarise an app's activity.
type Stats struct {
	Cycles       int
	ReportsSent  int
	SendFailures int
	RegionEnters int
	RegionExits  int
}

// App is one running client instance.
type App struct {
	name string
	cfg  Config

	filt    *filter.History
	queue   *transport.Queue
	meter   *energy.Meter
	logger  *energy.Logger
	moving  mobility.Model
	state   State
	lastPos geom.Point
	stats   Stats

	// idStrings memoises the wire form of each reported beacon identity.
	idStrings map[ibeacon.BeaconID]string

	// obsBuf is the reused per-cycle observation scratch fed to the
	// filter (the filter copies what it keeps).
	obsBuf []filter.Observation

	// Per-cycle meter components, resolved once at launch.
	cBase, cScan, cCPU energy.Component
}

// Launch attaches an app to the BLE world. The app's scan cycles start
// after the boot delay (the boot handler listening for the boot-complete
// event).
func Launch(w *ble.World, name string, m mobility.Model, cfg Config, src *rng.Source) (*App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("app: %q needs a mobility model", name)
	}
	if src == nil {
		return nil, fmt.Errorf("app: %q needs an rng source", name)
	}
	filt, err := filter.NewHistory(cfg.Filter)
	if err != nil {
		return nil, err
	}
	meter := energy.NewMeter(cfg.Profile.Battery)
	a := &App{
		name:    name,
		cfg:     cfg,
		filt:    filt,
		meter:   meter,
		logger:  energy.NewLogger(meter),
		moving:  m,
		state:   Booting,
		lastPos: m.Position(0),
		cBase:   meter.Component("phone-base"),
		cScan:   meter.Component("ble-scan"),
		cCPU:    meter.Component("cpu"),
	}
	// Reports pay their radio energy per send attempt — a failed BLE
	// connection still costs its connection energy.
	cUplink := meter.Component("uplink")
	charged := transport.SendFunc{
		Label: cfg.Uplink.Name(),
		F: func(r transport.Report) error {
			if err := cUplink.DrawEnergy(cfg.Power.ReportEnergyJ(cfg.UplinkKind)); err != nil {
				return err
			}
			if err := cfg.Uplink.Send(r); err != nil {
				a.stats.SendFailures++
				return err
			}
			return nil
		},
	}
	a.queue, err = transport.NewQueue(charged, queueLen, maxAttempts)
	if err != nil {
		return nil, err
	}

	// The measurement app samples the battery level periodically.
	w.Engine().Ticker(batteryLogPeriod, func(now time.Duration) bool {
		a.logger.Sample(now)
		return !a.meter.Depleted()
	})
	return a, a.start(w, src)
}

// start wires the scanner. The scanner's cycle ticker begins at attach
// time; cycles that complete before bootDelay are discarded in onCycle
// (the boot handler has not yet started the background service), which
// honours the boot sequence of Figure 3 without a second timer.
func (a *App) start(w *ble.World, src *rng.Source) error {
	_, err := scanner.Attach(w, a.name, a.moving, scanner.Config{
		Period:  a.cfg.ScanPeriod,
		Profile: a.cfg.Profile,
		Region:  a.cfg.Region,
		OnCycle: a.onCycle,
	}, src)
	return err
}

// onCycle processes one completed scan period.
func (a *App) onCycle(c scanner.Cycle) {
	if a.meter.Depleted() {
		return // the phone is dead
	}
	if c.End <= bootDelay {
		// Still booting: only the base phone load applies.
		_ = a.cBase.Draw(a.cfg.Power.BasePhoneMW, c.End-c.Start)
		return
	}
	if a.state == Booting {
		a.state = Monitoring
	}
	a.stats.Cycles++

	pos := a.moving.Position(c.End)
	moved := pos.Dist(a.lastPos) >= motionThreshold
	a.lastPos = pos

	// Continuous power for the cycle. With the motion gate active and
	// the user still, sensing is duty-cycled to 20%.
	period := c.End - c.Start
	scanMW := a.cfg.Power.BLEScanMW
	if a.cfg.MotionGate && !moved {
		scanMW *= 0.2
	}
	base := a.cfg.Power.ContinuousPowerMW(a.cfg.UplinkKind) - a.cfg.Power.BLEScanMW
	_ = a.cBase.Draw(base, period)
	_ = a.cScan.Draw(scanMW, period)
	_ = a.cCPU.DrawEnergy(a.cfg.Power.CPUPerCycleJ)

	// Ranging: feed the history filter.
	obs := a.obsBuf[:0]
	for _, s := range c.Samples {
		obs = append(obs, filter.Observation{
			Beacon:        s.Beacon,
			RSSI:          s.RSSI,
			MeasuredPower: s.MeasuredPower,
		})
	}
	a.obsBuf = obs
	estimates := a.filt.Update(c.End, obs)

	// Region transitions (the monitoring service callback).
	inRegion := len(estimates) > 0
	switch {
	case inRegion && a.state != Ranging:
		a.state = Ranging
		a.stats.RegionEnters++
	case !inRegion && a.state == Ranging:
		a.state = Monitoring
		a.stats.RegionExits++
	}
	if !inRegion {
		return
	}

	// Motion gate: a stationary user generates no new occupancy
	// information (Section VIII).
	if a.cfg.MotionGate && !moved {
		return
	}

	report := transport.Report{Device: a.name, AtSeconds: c.End.Seconds()}
	for _, e := range estimates {
		report.Beacons = append(report.Beacons, transport.BeaconReport{
			ID:       a.beaconIDString(e.Beacon),
			Distance: e.Distance,
			RSSI:     rssiOf(c.Samples, e.Beacon),
		})
	}
	a.queue.Enqueue(report)
	a.stats.ReportsSent += a.queue.Flush()
}

// beaconIDString renders a beacon identity for the report wire format,
// memoised per beacon: an app reports the same few beacons every cycle.
func (a *App) beaconIDString(id ibeacon.BeaconID) string {
	if s, ok := a.idStrings[id]; ok {
		return s
	}
	if a.idStrings == nil {
		a.idStrings = make(map[ibeacon.BeaconID]string)
	}
	s := id.String()
	a.idStrings[id] = s
	return s
}

// rssiOf finds the cycle RSSI for a beacon (0 when the beacon was held
// from a previous cycle).
func rssiOf(samples []scanner.Sample, id ibeacon.BeaconID) float64 {
	for _, s := range samples {
		if s.Beacon == id {
			return s.RSSI
		}
	}
	return 0
}

// Stats returns activity counters.
func (a *App) Stats() Stats { return a.stats }

// Meter exposes the battery meter.
func (a *App) Meter() *energy.Meter { return a.meter }

// BatteryLog exposes the measurement logger.
func (a *App) BatteryLog() *energy.Logger { return a.logger }

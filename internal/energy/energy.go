// Package energy implements the mobile-device energy model of Section
// VII: a component-level power accounting meter over the handset battery,
// the application power profile (BLE scanning, CPU, Wi-Fi vs
// Bluetooth-relay reporting), and the periodic battery logger standing in
// for the paper's measurement app ("basically a background service that
// logs the battery status in a very energy efficient way").
//
// The default profile is calibrated so the simulated Galaxy S3 Mini
// matches the paper's headline numbers: ≈10 h battery life with the app
// reporting over Wi-Fi, and ≈15% total energy saving when reporting over
// the Bluetooth relay instead.
package energy

import (
	"fmt"
	"time"

	"occusim/internal/device"
)

// Meter integrates energy drawn from one battery, attributed to named
// components.
type Meter struct {
	battery     device.Battery
	usedJ       float64
	byComponent map[string]*float64
}

// NewMeter builds a meter over the battery.
func NewMeter(b device.Battery) *Meter {
	return &Meter{battery: b, byComponent: map[string]*float64{}}
}

// Component is a resolved attribution handle: callers that draw from the
// same component every scan cycle resolve the name once and skip the
// map lookup per draw.
type Component struct {
	m *Meter
	j *float64
}

// Component returns the drawing handle for the named component.
func (m *Meter) Component(name string) Component {
	return Component{m: m, j: m.bucket(name)}
}

func (m *Meter) bucket(component string) *float64 {
	p := m.byComponent[component]
	if p == nil {
		p = new(float64)
		m.byComponent[component] = p
	}
	return p
}

// Draw consumes powerMW for dur, attributed to the component. Negative
// power or duration is rejected.
func (c Component) Draw(powerMW float64, dur time.Duration) error {
	if powerMW < 0 {
		return fmt.Errorf("energy: negative power %v mW", powerMW)
	}
	if dur < 0 {
		return fmt.Errorf("energy: negative duration %v", dur)
	}
	j := powerMW / 1000 * dur.Seconds()
	c.m.usedJ += j
	*c.j += j
	return nil
}

// DrawEnergy consumes a fixed energy in joules (e.g. one report burst).
func (c Component) DrawEnergy(joules float64) error {
	if joules < 0 {
		return fmt.Errorf("energy: negative energy %v J", joules)
	}
	c.m.usedJ += joules
	*c.j += joules
	return nil
}

// UsedJ returns the total energy consumed.
func (m *Meter) UsedJ() float64 { return m.usedJ }

// CapacityJ returns the battery's full capacity.
func (m *Meter) CapacityJ() float64 { return m.battery.EnergyJ() }

// RemainingJ returns the energy left (never negative).
func (m *Meter) RemainingJ() float64 {
	r := m.CapacityJ() - m.usedJ
	if r < 0 {
		return 0
	}
	return r
}

// Level returns the battery level in [0, 1].
func (m *Meter) Level() float64 {
	return m.RemainingJ() / m.CapacityJ()
}

// Depleted reports whether the battery is empty.
func (m *Meter) Depleted() bool { return m.RemainingJ() == 0 }

// ByComponent returns a copy of the per-component energy attribution.
func (m *Meter) ByComponent() map[string]float64 {
	out := make(map[string]float64, len(m.byComponent))
	for k, v := range m.byComponent {
		out[k] = *v
	}
	return out
}

// Uplink selects the reporting channel of Section VII.
type Uplink int

const (
	// WiFi posts observations directly to the BMS over HTTP; the Wi-Fi
	// radio must stay associated.
	WiFi Uplink = iota
	// Bluetooth opens a BLE connection to the beacon board, which relays
	// to the BMS; the Wi-Fi radio can stay off.
	Bluetooth
)

// String implements fmt.Stringer.
func (u Uplink) String() string {
	switch u {
	case WiFi:
		return "wifi"
	case Bluetooth:
		return "bluetooth"
	default:
		return fmt.Sprintf("uplink(%d)", int(u))
	}
}

// AppProfile is the power profile of the occupancy app on one handset.
// All powers in milliwatts, energies in joules.
type AppProfile struct {
	// BasePhoneMW is everything unrelated to the app: standby radio,
	// background OS work and the usage mix of the owner. It dominates
	// the battery budget, as on real phones.
	BasePhoneMW float64
	// BLEScanMW is the marginal cost of continuous BLE scanning.
	BLEScanMW float64
	// CPUPerCycleJ is the processing cost of handling one scan cycle
	// (parsing, filtering, bookkeeping).
	CPUPerCycleJ float64
	// WiFiIdleMW keeps the Wi-Fi radio associated (paid whenever the
	// Wi-Fi uplink is selected, even between reports).
	WiFiIdleMW float64
	// WiFiReportJ is the energy of one HTTP POST: transmit burst plus
	// the radio tail while the adapter ramps down.
	WiFiReportJ float64
	// BTReportJ is the energy of one report over a fresh BLE connection
	// to the beacon board (connection establishment, GATT write,
	// teardown, CPU wake).
	BTReportJ float64
}

// DefaultAppProfile returns the calibrated Galaxy S3 Mini profile.
//
// Arithmetic at a 5 s report period: Wi-Fi total = 380 (base) + 45 (scan)
// + 35 (Wi-Fi idle) + 0.55 J / 5 s = 110 → 570 mW, which drains the
// 20.5 kJ battery in ≈10.0 h. Bluetooth total = 380 + 45 + 0.30 J / 5 s
// = 60 → 485 mW (≈11.7 h), a ≈15% saving, matching Section VII.
func DefaultAppProfile() AppProfile {
	return AppProfile{
		BasePhoneMW:  380,
		BLEScanMW:    45,
		CPUPerCycleJ: 0.015,
		WiFiIdleMW:   35,
		WiFiReportJ:  0.55,
		BTReportJ:    0.30,
	}
}

// Validate reports the first nonsensical value, or nil.
func (p AppProfile) Validate() error {
	fields := []struct {
		name string
		v    float64
	}{
		{"BasePhoneMW", p.BasePhoneMW},
		{"BLEScanMW", p.BLEScanMW},
		{"CPUPerCycleJ", p.CPUPerCycleJ},
		{"WiFiIdleMW", p.WiFiIdleMW},
		{"WiFiReportJ", p.WiFiReportJ},
		{"BTReportJ", p.BTReportJ},
	}
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("energy: %s must be non-negative, got %v", f.name, f.v)
		}
	}
	return nil
}

// ReportEnergyJ returns the per-report energy of the chosen uplink.
func (p AppProfile) ReportEnergyJ(u Uplink) float64 {
	if u == Bluetooth {
		return p.BTReportJ
	}
	return p.WiFiReportJ
}

// ContinuousPowerMW returns the standing power of the app (and phone)
// with the chosen uplink, excluding per-event costs.
func (p AppProfile) ContinuousPowerMW(u Uplink) float64 {
	total := p.BasePhoneMW + p.BLEScanMW
	if u == WiFi {
		total += p.WiFiIdleMW
	}
	return total
}

// LogEntry is one battery-level sample.
type LogEntry struct {
	At    time.Duration
	Level float64
}

// Logger periodically samples a meter's battery level, standing in for
// the paper's measurement application.
type Logger struct {
	meter   *Meter
	entries []LogEntry
}

// NewLogger builds a logger over the meter.
func NewLogger(m *Meter) *Logger { return &Logger{meter: m} }

// Sample records the current level at time at.
func (l *Logger) Sample(at time.Duration) {
	l.entries = append(l.entries, LogEntry{At: at, Level: l.meter.Level()})
}

// Entries returns a copy of the log.
func (l *Logger) Entries() []LogEntry { return append([]LogEntry(nil), l.entries...) }

// LifetimeEstimate extrapolates the time to empty from the first and
// last log entries. ok is false with fewer than two entries or no
// measurable drain.
func (l *Logger) LifetimeEstimate() (time.Duration, bool) {
	if len(l.entries) < 2 {
		return 0, false
	}
	first, last := l.entries[0], l.entries[len(l.entries)-1]
	drop := first.Level - last.Level
	if drop <= 0 || last.At <= first.At {
		return 0, false
	}
	perSecond := drop / (last.At - first.At).Seconds()
	secs := first.Level / perSecond
	return time.Duration(secs * float64(time.Second)), true
}

// Package scanner layers operating-system scanning semantics on top of
// the raw BLE link: it groups decoded advertisements into scan cycles
// ("scan periods" in the paper's terminology) and reproduces the two
// behaviours Section V contrasts:
//
//   - Android: the BLE API yields a single signal-strength measurement
//     per beacon per scan cycle (the stack's duplicate filtering), the
//     radio captures only a fraction of the packets on air (channel
//     rotation and duty cycling), scans start with a short dead time, and
//     the whole cycle is occasionally lost to a stack bug.
//   - iOS: the radio captures every advertisement on air and no cycle is
//     lost, so a 2 s cycle at 30 advertisements/s decodes ~60 raw
//     samples where Android delivers one. The model counts them
//     (Stats.RawReceptions) and delivers the same per-cycle aggregate
//     as on Android; it hands no single packet to the application.
//
// The per-cycle aggregated value is the mean RSSI of the advertisements
// the stack decoded during the cycle, which is what the Radius Networks
// library the paper uses computes per scan period.
package scanner

import (
	"fmt"
	"time"

	"occusim/internal/ble"
	"occusim/internal/device"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/rng"
	"occusim/internal/stats"
)

// Default radio capture probabilities by OS. Android listens with a low
// duty cycle on one of three advertising channels; the iOS model is tuned
// so that every advertisement is delivered, matching the paper's
// "three hundred samples" example.
const (
	AndroidCaptureProb = 0.12
	IOSCaptureProb     = 1.0
)

// Sample is one aggregated per-beacon measurement delivered at the end of
// a scan cycle — the Android API's "single signal strength measurement
// per scan".
type Sample struct {
	// Beacon identifies the transmitter.
	Beacon ibeacon.BeaconID
	// MeasuredPower is the calibrated 1 m RSSI carried by the packet.
	MeasuredPower int8
	// RSSI is the aggregated received strength for the cycle in dBm.
	RSSI float64
}

// Cycle is the result of one scan period.
type Cycle struct {
	// Start and End delimit the cycle in simulated time.
	Start, End time.Duration
	// Samples holds one aggregated sample per beacon heard, sorted by
	// beacon identity. Empty when nothing was heard or the cycle was
	// dropped.
	Samples []Sample
	// Dropped marks a cycle lost to the Android stack bug.
	Dropped bool
}

// Config parameterises a scanner.
type Config struct {
	// Period is the scan period (the estimation window of the paper's
	// footnote 1). Required.
	Period time.Duration
	// Profile selects the handset behaviour. Required (zero Profile
	// fails validation).
	Profile device.Profile
	// Region restricts processing to matching packets, mirroring the
	// monitoring configuration step: the app and transmitters must agree
	// on the region UUID. A zero Region accepts everything.
	Region ibeacon.Region
	// OnCycle receives each completed cycle. Optional.
	OnCycle func(Cycle)
}

func (c Config) validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("scanner: period must be positive, got %v", c.Period)
	}
	return c.Profile.Validate()
}

func (c Config) captureProb() float64 {
	if c.Profile.OS == device.IOS {
		return IOSCaptureProb
	}
	return AndroidCaptureProb
}

// Scanner drives one handset's scanning. Create with Attach.
type Scanner struct {
	cfg        Config
	src        *rng.Source
	world      *ble.World
	listener   *ble.Listener
	detached   bool
	cycleStart time.Duration
	acc        map[ibeacon.BeaconID]*accum

	// slots memoises the whole per-payload reception pipeline — the
	// ibeacon.Unmarshal outcome, the region decision and the resolved
	// cycle accumulator — per distinct payload buffer. Beacon boards
	// advertise one fixed payload slice for their whole lifetime, so the
	// stack resolves each buffer once and every later reception is a
	// pointer-compare scan of this small array, with no map hashing on
	// the hot path. The slice holds at most payloadCacheMaxEntries
	// entries, evicting the oldest first (FIFO, a single victim) so a
	// workload churning fresh payload buffers
	// cannot grow it without bound; an evicted payload merely pays the
	// parse again on its next reception. Slot references keep cached
	// buffers alive, so a payload address can never be reused while its
	// slot lives.
	slots []payloadSlot
	// lastSlot short-circuits the scan for runs of receptions from the
	// same advertiser.
	lastSlot int

	totalRaw int
}

// payloadCacheMaxEntries bounds the payload-resolution memo. Deployments
// have tens of beacons; the bound only matters to adversarial payload
// churn.
const payloadCacheMaxEntries = 128

type accum struct {
	power int8
	rssis []float64
}

// payloadSlot is one memoised payload resolution, keyed by the buffer's
// first-byte address. acc is nil when the payload is ignored (not an
// iBeacon advertisement, or outside the monitored region), so rejects
// stay cheap too.
type payloadSlot struct {
	key   *byte
	acc   *accum
	id    ibeacon.BeaconID
	power int8
}

// Attach registers a scanner for the given subject in the BLE world. The
// scanner's randomness comes from src (stack-bug draws), independent of
// the link-layer randomness.
func Attach(w *ble.World, name string, m mobility.Model, cfg Config, src *rng.Source) (*Scanner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("scanner: %q needs a mobility model", name)
	}
	if src == nil {
		return nil, fmt.Errorf("scanner: %q needs an rng source", name)
	}
	s := &Scanner{
		cfg:   cfg,
		src:   src,
		world: w,
		acc:   make(map[ibeacon.BeaconID]*accum),
	}
	s.listener = &ble.Listener{
		Name:         name,
		Mobility:     m,
		OffsetDB:     cfg.Profile.RSSIOffsetDB,
		NoiseSigmaDB: cfg.Profile.NoiseSigmaDB,
		CaptureProb:  cfg.captureProb(),
		Handler:      s.onReception,
	}
	if err := w.AddListener(s.listener); err != nil {
		return nil, err
	}
	w.Engine().Ticker(cfg.Period, func(now time.Duration) bool {
		if s.detached {
			return false
		}
		s.closeCycle(now)
		return true
	})
	return s, nil
}

// Detach stops the scanner: its listener leaves the BLE world (so its
// packets are no longer sampled) and its cycle ticker winds down at the
// next tick. A workload whose measurement phase has ended — the operator
// walking out with the survey handset, say — detaches its scanner so the
// rest of the simulation does not pay for a radio nobody reads. Counters
// freeze at their current values; Detach is idempotent.
func (s *Scanner) Detach() {
	if s.detached {
		return
	}
	s.detached = true
	s.world.RemoveListener(s.listener)
}

// onReception handles one decoded packet from the link layer.
func (s *Scanner) onReception(r ble.Reception) {
	// Scan-restart dead time at the head of each cycle.
	if r.At < s.cycleStart+s.cfg.Profile.ScanRestartOverhead {
		return
	}
	if len(r.Payload) == 0 {
		return
	}
	key := &r.Payload[0]
	var sl *payloadSlot
	if i := s.lastSlot; i < len(s.slots) && s.slots[i].key == key {
		sl = &s.slots[i]
	} else {
		sl = s.resolvePayload(key, r.Payload)
	}
	if sl.acc == nil {
		return // not an iBeacon advertisement, or outside the region
	}
	sl.acc.power = sl.power
	sl.acc.rssis = append(sl.acc.rssis, r.RSSI)
	s.totalRaw++
}

// resolvePayload returns the payload's memo slot, scanning the cache by
// buffer address and parsing (then caching, bounded FIFO) on a miss.
func (s *Scanner) resolvePayload(key *byte, payload []byte) *payloadSlot {
	for i := range s.slots {
		if s.slots[i].key == key {
			s.lastSlot = i
			return &s.slots[i]
		}
	}
	sl := payloadSlot{key: key}
	if pkt, err := ibeacon.Unmarshal(payload); err == nil {
		if s.cfg.Region.UUID == (ibeacon.UUID{}) || s.cfg.Region.Matches(pkt) {
			sl.id = pkt.ID()
			sl.power = pkt.MeasuredPower
			a := s.acc[sl.id]
			if a == nil {
				a = &accum{}
				s.acc[sl.id] = a
			}
			sl.acc = a
		}
	}
	if len(s.slots) >= payloadCacheMaxEntries {
		// FIFO single victim: drop the oldest entry, keep the rest in
		// insertion order.
		copy(s.slots, s.slots[1:])
		s.slots = s.slots[:len(s.slots)-1]
	}
	s.slots = append(s.slots, sl)
	s.lastSlot = len(s.slots) - 1
	return &s.slots[s.lastSlot]
}

// closeCycle finalises the current scan period and begins the next.
func (s *Scanner) closeCycle(now time.Duration) {
	c := Cycle{Start: s.cycleStart, End: now}
	if s.cfg.Profile.OS == device.Android && s.src.Bool(s.cfg.Profile.ScanLossProb) {
		c.Dropped = true
	} else {
		for id, a := range s.acc {
			if len(a.rssis) == 0 {
				continue // beacon heard in an earlier cycle only
			}
			c.Samples = append(c.Samples, Sample{
				Beacon:        id,
				MeasuredPower: a.power,
				RSSI:          stats.Mean(a.rssis),
			})
		}
		sortSamples(c.Samples)
	}

	// Keep the accumulator entries (the beacon population is small and
	// stable) and reset their sample slices in place; the steady-state
	// cycle then allocates nothing but its outgoing samples.
	for _, a := range s.acc {
		a.rssis = a.rssis[:0]
	}
	s.cycleStart = now
	if s.cfg.OnCycle != nil {
		s.cfg.OnCycle(c)
	}
}

// sortSamples orders samples by beacon identity so cycle contents are
// deterministic despite map iteration. Concrete insertion sort: a cycle
// holds a handful of beacons and runs every scan period, where
// sort.Slice's reflection-based swaps would dominate.
func sortSamples(samples []Sample) {
	for i := 1; i < len(samples); i++ {
		for j := i; j > 0 && samples[j].Beacon.Compare(samples[j-1].Beacon) < 0; j-- {
			samples[j], samples[j-1] = samples[j-1], samples[j]
		}
	}
}

// Stats summarise a scanner's lifetime activity, used by the Section V
// sample-count experiment.
type Stats struct {
	// RawReceptions counts every packet the stack decoded.
	RawReceptions int
}

// Stats returns the scanner's counters.
func (s *Scanner) Stats() Stats {
	return Stats{RawReceptions: s.totalRaw}
}

// Package filter implements the paper's distance-estimation pipeline
// (Section V): per-beacon conversion of aggregated RSSI samples into
// distances, the recursive history filter
//
//	pᵢ = c·pᵢ₋₁ + (1−c)·vᵢ
//
// with the coefficient c = 0.65 the paper selects as the best trade-off
// between stability and responsiveness, and the loss-tolerance rule that
// removes a beacon's state only after the second consecutive missed scan
// ("we remove the beacon information only after the second consecutive
// loss, otherwise its value is maintained").
package filter

import (
	"fmt"
	"time"

	"occusim/internal/ibeacon"
	"occusim/internal/radio"
)

// Observation is one aggregated per-beacon measurement entering the
// filter (produced from a scanner cycle).
type Observation struct {
	Beacon ibeacon.BeaconID
	// RSSI is the aggregated received strength in dBm.
	RSSI float64
	// MeasuredPower is the calibrated 1 m RSSI from the packet.
	MeasuredPower int8
}

// Estimate is the filter's current belief about one beacon.
type Estimate struct {
	Beacon ibeacon.BeaconID
	// Distance is the filtered distance in metres.
	Distance float64
	// Raw is the unfiltered distance implied by the latest observation
	// (unchanged during held losses).
	Raw float64
	// LastSeen is the time of the last observation that included the
	// beacon.
	LastSeen time.Duration
	// Misses counts consecutive scans that did not include the beacon.
	Misses int
}

// Config parameterises the history filter.
type Config struct {
	// Coeff is the history coefficient c ∈ [0, 1). 0 disables smoothing
	// (the estimate equals the latest measurement); the paper uses 0.65.
	Coeff float64
	// MaxMisses is the number of consecutive losses after which a beacon
	// is dropped. The paper uses 2.
	MaxMisses int
	// Estimator converts RSSI to distance. Defaults to the log-distance
	// model with the indoor exponent when nil.
	Estimator radio.DistanceEstimator
}

// PaperConfig returns the configuration the paper converges on: c = 0.65,
// removal after the second consecutive loss.
func PaperConfig() Config {
	return Config{Coeff: 0.65, MaxMisses: 2}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	if c.Coeff < 0 || c.Coeff >= 1 {
		return fmt.Errorf("filter: coefficient %v outside [0, 1)", c.Coeff)
	}
	if c.MaxMisses < 1 {
		return fmt.Errorf("filter: MaxMisses must be at least 1, got %d", c.MaxMisses)
	}
	return nil
}

func (c Config) estimator() radio.DistanceEstimator {
	if c.Estimator != nil {
		return c.Estimator
	}
	return radio.LogDistanceEstimator{Exponent: 2.4}
}

// History is the paper's recursive filter.
type History struct {
	cfg   Config
	est   radio.DistanceEstimator
	state map[ibeacon.BeaconID]*Estimate
	// snapBuf is the reused Update return buffer; see the Update
	// contract.
	snapBuf []Estimate
}

// NewHistory builds the paper's filter from cfg.
func NewHistory(cfg Config) (*History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &History{
		cfg:   cfg,
		est:   cfg.estimator(),
		state: make(map[ibeacon.BeaconID]*Estimate),
	}, nil
}

// Update consumes the observations of one scan cycle (empty when the
// cycle saw nothing) and returns the current estimates, sorted by beacon
// identity. The returned slice is reused by the next Update call — it
// runs every scan cycle, so it must not allocate a fresh snapshot each
// time; callers that retain estimates across cycles copy them. Miss
// counting reads presence off the per-beacon LastSeen stamp, so cycle
// timestamps must be strictly increasing.
func (h *History) Update(at time.Duration, obs []Observation) []Estimate {
	for _, o := range obs {
		v := h.est.Estimate(o.RSSI, float64(o.MeasuredPower))
		s := h.state[o.Beacon]
		if s == nil {
			// First contact: the history is empty, so the estimate is
			// the measurement itself.
			h.state[o.Beacon] = &Estimate{
				Beacon:   o.Beacon,
				Distance: v,
				Raw:      v,
				LastSeen: at,
			}
			continue
		}
		s.Distance = h.cfg.Coeff*s.Distance + (1-h.cfg.Coeff)*v
		s.Raw = v
		s.LastSeen = at
		s.Misses = 0
	}
	// Beacons not present in this cycle: hold the value, count the miss,
	// drop after MaxMisses consecutive losses. "Present" is read off the
	// state itself (every observed beacon was just stamped with this
	// cycle's timestamp), so no per-cycle seen-set is allocated.
	for id, s := range h.state {
		if s.LastSeen == at {
			continue
		}
		s.Misses++
		if s.Misses >= h.cfg.MaxMisses {
			delete(h.state, id)
		}
	}
	out := h.snapBuf[:0]
	for _, s := range h.state {
		out = append(out, *s)
	}
	sortEstimates(out)
	h.snapBuf = out
	return out
}

// Snapshot returns the current estimates without consuming a cycle.
// Unlike Update's return value, the snapshot is freshly allocated and
// safe to retain.
func (h *History) Snapshot() []Estimate {
	out := make([]Estimate, 0, len(h.state))
	for _, s := range h.state {
		out = append(out, *s)
	}
	sortEstimates(out)
	return out
}

// sortEstimates orders by beacon identity with a concrete insertion
// sort: estimate sets are a handful of beacons and this runs every scan
// cycle, where sort.Slice's reflection-based swaps dominate the actual
// comparisons.
func sortEstimates(es []Estimate) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Beacon.Compare(es[j-1].Beacon) < 0; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// Nearest returns the estimate with the smallest distance, the signal the
// proximity technique keys on. ok is false when no beacon is tracked.
func Nearest(es []Estimate) (Estimate, bool) {
	if len(es) == 0 {
		return Estimate{}, false
	}
	best := es[0]
	for _, e := range es[1:] {
		if e.Distance < best.Distance {
			best = e
		}
	}
	return best, true
}

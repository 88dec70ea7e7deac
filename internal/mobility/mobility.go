// Package mobility provides the movement models that drive the simulated
// test subjects: the static placements of the signal-analysis experiments
// (Figures 4–6), the constant-speed walks between transmitters of the
// dynamic tests (Figures 7–8, 1–1.5 m/s), and the room-to-room tours used
// to collect classification test data (Section VI).
package mobility

import (
	"fmt"
	"sort"
	"time"

	"occusim/internal/geom"
	"occusim/internal/rng"
)

// Model yields a position for every simulated time. Implementations must
// be deterministic: repeated calls with the same t return the same point.
type Model interface {
	// Position returns the position at time t. Times before the start
	// clamp to the initial position, times after the end to the final
	// position.
	Position(t time.Duration) geom.Point
	// End returns the time at which movement stops.
	End() time.Duration
}

// Static is a motionless subject, used for the static signal tests.
type Static struct {
	P geom.Point
}

// Position implements Model.
func (s Static) Position(time.Duration) geom.Point { return s.P }

// End implements Model.
func (s Static) End() time.Duration { return 0 }

// Leg is one piece of a movement schedule: linear motion from From to To
// over [Start, End). A leg with From == To is a dwell.
type Leg struct {
	Start, End time.Duration
	From, To   geom.Point
}

// Schedule is a deterministic piecewise-linear movement plan.
type Schedule struct {
	legs []Leg
}

// End implements Model.
func (s *Schedule) End() time.Duration {
	if len(s.legs) == 0 {
		return 0
	}
	return s.legs[len(s.legs)-1].End
}

// Position implements Model.
func (s *Schedule) Position(t time.Duration) geom.Point {
	if len(s.legs) == 0 {
		return geom.Point{}
	}
	if t <= s.legs[0].Start {
		return s.legs[0].From
	}
	last := s.legs[len(s.legs)-1]
	if t >= last.End {
		return last.To
	}
	// Binary search for the leg containing t.
	i := sort.Search(len(s.legs), func(i int) bool { return s.legs[i].End > t })
	leg := s.legs[i]
	if leg.End == leg.Start {
		return leg.To
	}
	frac := float64(t-leg.Start) / float64(leg.End-leg.Start)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return leg.From.Lerp(leg.To, frac)
}

// NewPath builds a schedule that walks through the waypoints at the given
// constant speed (m/s), starting at time 0. At least one waypoint and a
// positive speed are required.
func NewPath(waypoints []geom.Point, speed float64) (*Schedule, error) {
	if len(waypoints) == 0 {
		return nil, fmt.Errorf("mobility: path needs at least one waypoint")
	}
	if speed <= 0 {
		return nil, fmt.Errorf("mobility: speed must be positive, got %v", speed)
	}
	s := &Schedule{}
	now := time.Duration(0)
	for i := 0; i+1 < len(waypoints); i++ {
		from, to := waypoints[i], waypoints[i+1]
		dur := time.Duration(from.Dist(to) / speed * float64(time.Second))
		s.legs = append(s.legs, Leg{Start: now, End: now + dur, From: from, To: to})
		now += dur
	}
	if len(s.legs) == 0 { // single waypoint: a zero-length dwell
		s.legs = append(s.legs, Leg{From: waypoints[0], To: waypoints[0]})
	}
	return s, nil
}

// Stop is one station of a collection walk: a point and how long to
// dwell there.
type Stop struct {
	P     geom.Point
	Dwell time.Duration
}

// NewStops builds a schedule that walks through the stops at the given
// constant speed, dwelling at each. It models the fingerprint operator
// standing at each survey point while samples accumulate.
func NewStops(stops []Stop, speed float64) (*Schedule, error) {
	if len(stops) == 0 {
		return nil, fmt.Errorf("mobility: stops walk needs at least one stop")
	}
	if speed <= 0 {
		return nil, fmt.Errorf("mobility: speed must be positive, got %v", speed)
	}
	s := &Schedule{}
	now := time.Duration(0)
	cur := stops[0].P
	for i, stop := range stops {
		if i > 0 {
			walk := time.Duration(cur.Dist(stop.P) / speed * float64(time.Second))
			s.legs = append(s.legs, Leg{Start: now, End: now + walk, From: cur, To: stop.P})
			now += walk
			cur = stop.P
		}
		if stop.Dwell > 0 {
			s.legs = append(s.legs, Leg{Start: now, End: now + stop.Dwell, From: cur, To: cur})
			now += stop.Dwell
		}
	}
	if len(s.legs) == 0 { // single stop without dwell
		s.legs = append(s.legs, Leg{From: cur, To: cur})
	}
	return s, nil
}

// RandomWaypointConfig parameterises NewRandomWaypoint and NewTour.
type RandomWaypointConfig struct {
	// SpeedMin/SpeedMax bound the walking speed in m/s. The paper's
	// dynamic tests use 1–1.5 m/s.
	SpeedMin, SpeedMax float64
	// PauseMin/PauseMax bound the dwell at each waypoint.
	PauseMin, PauseMax time.Duration
}

// Validate reports the first invalid field, or nil.
func (c RandomWaypointConfig) Validate() error {
	switch {
	case c.SpeedMin <= 0:
		return fmt.Errorf("mobility: SpeedMin must be positive, got %v", c.SpeedMin)
	case c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("mobility: SpeedMax %v < SpeedMin %v", c.SpeedMax, c.SpeedMin)
	case c.PauseMin < 0:
		return fmt.Errorf("mobility: PauseMin must be non-negative, got %v", c.PauseMin)
	case c.PauseMax < c.PauseMin:
		return fmt.Errorf("mobility: PauseMax %v < PauseMin %v", c.PauseMax, c.PauseMin)
	}
	return nil
}

// DefaultWalk returns the paper's walking parameters: 1–1.5 m/s with
// short pauses.
func DefaultWalk() RandomWaypointConfig {
	return RandomWaypointConfig{
		SpeedMin: 1.0,
		SpeedMax: 1.5,
		PauseMin: 2 * time.Second,
		PauseMax: 10 * time.Second,
	}
}

func (c RandomWaypointConfig) speed(r *rng.Source) float64 {
	return r.Uniform(c.SpeedMin, c.SpeedMax)
}

func (c RandomWaypointConfig) pause(r *rng.Source) time.Duration {
	if c.PauseMax == c.PauseMin {
		return c.PauseMin
	}
	return c.PauseMin + time.Duration(r.Uniform(0, float64(c.PauseMax-c.PauseMin)))
}

func randomPointIn(area geom.Rect, r *rng.Source) geom.Point {
	return geom.Pt(
		r.Uniform(area.Min.X, area.Max.X),
		r.Uniform(area.Min.Y, area.Max.Y),
	)
}

// NewRandomWaypoint builds the classic random-waypoint model inside one
// area: pick a random point, walk to it at a random speed, pause, repeat,
// until the schedule covers at least duration.
func NewRandomWaypoint(area geom.Rect, cfg RandomWaypointConfig, duration time.Duration, r *rng.Source) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if area.Area() <= 0 {
		return nil, fmt.Errorf("mobility: random waypoint area is empty")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("mobility: duration must be positive, got %v", duration)
	}
	s := &Schedule{}
	now := time.Duration(0)
	cur := randomPointIn(area, r)
	for now < duration {
		next := randomPointIn(area, r)
		walk := time.Duration(cur.Dist(next) / cfg.speed(r) * float64(time.Second))
		s.legs = append(s.legs, Leg{Start: now, End: now + walk, From: cur, To: next})
		now += walk
		if p := cfg.pause(r); p > 0 {
			s.legs = append(s.legs, Leg{Start: now, End: now + p, From: next, To: next})
			now += p
		}
		cur = next
	}
	return s, nil
}

// NewTour builds a room-to-room tour: repeatedly pick one of the areas
// (never the same one twice in a row when more than one is available),
// walk in a straight line to a random interior point, dwell there, and
// continue until the schedule covers at least duration. This is the
// movement pattern of the paper's classification test subject, who moved
// within a house and reported the room they were in.
func NewTour(areas []geom.Rect, cfg RandomWaypointConfig, duration time.Duration, r *rng.Source) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(areas) == 0 {
		return nil, fmt.Errorf("mobility: tour needs at least one area")
	}
	for i, a := range areas {
		if a.Area() <= 0 {
			return nil, fmt.Errorf("mobility: tour area %d is empty", i)
		}
	}
	if duration <= 0 {
		return nil, fmt.Errorf("mobility: duration must be positive, got %v", duration)
	}
	s := &Schedule{}
	now := time.Duration(0)
	cur := randomPointIn(areas[r.Intn(len(areas))], r)
	last := -1
	for now < duration {
		idx := r.Intn(len(areas))
		if len(areas) > 1 {
			for idx == last {
				idx = r.Intn(len(areas))
			}
		}
		last = idx
		next := randomPointIn(areas[idx], r)
		walk := time.Duration(cur.Dist(next) / cfg.speed(r) * float64(time.Second))
		s.legs = append(s.legs, Leg{Start: now, End: now + walk, From: cur, To: next})
		now += walk
		if p := cfg.pause(r); p > 0 {
			s.legs = append(s.legs, Leg{Start: now, End: now + p, From: next, To: next})
			now += p
		}
		cur = next
	}
	return s, nil
}

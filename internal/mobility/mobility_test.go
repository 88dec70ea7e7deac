package mobility

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"occusim/internal/geom"
	"occusim/internal/rng"
)

func TestStatic(t *testing.T) {
	s := Static{P: geom.Pt(3, 4)}
	if s.Position(0) != geom.Pt(3, 4) || s.Position(time.Hour) != geom.Pt(3, 4) {
		t.Fatal("static subject moved")
	}
	if s.End() != 0 {
		t.Fatal("static end should be 0")
	}
}

func TestPathConstantSpeed(t *testing.T) {
	p, err := NewPath([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}, 2) // 5 s walk
	if err != nil {
		t.Fatal(err)
	}
	if p.End() != 5*time.Second {
		t.Fatalf("End = %v", p.End())
	}
	if got := p.Position(0); got != geom.Pt(0, 0) {
		t.Errorf("start = %v", got)
	}
	mid := p.Position(2500 * time.Millisecond)
	if math.Abs(mid.X-5) > 1e-6 || mid.Y != 0 {
		t.Errorf("midpoint = %v", mid)
	}
	if got := p.Position(time.Hour); got != geom.Pt(10, 0) {
		t.Errorf("after end = %v", got)
	}
	if got := p.Position(-time.Second); got != geom.Pt(0, 0) {
		t.Errorf("before start = %v", got)
	}
}

func TestPathMultipleWaypoints(t *testing.T) {
	wp := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(3, 4)}
	p, err := NewPath(wp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.End() != 7*time.Second { // 3 m + 4 m at 1 m/s
		t.Fatalf("End = %v", p.End())
	}
	corner := p.Position(3 * time.Second)
	if corner.Dist(geom.Pt(3, 0)) > 1e-6 {
		t.Errorf("corner = %v", corner)
	}
}

func TestPathErrors(t *testing.T) {
	if _, err := NewPath(nil, 1); err == nil {
		t.Error("empty waypoints should error")
	}
	if _, err := NewPath([]geom.Point{geom.Pt(0, 0)}, 0); err == nil {
		t.Error("zero speed should error")
	}
}

func TestPathSingleWaypoint(t *testing.T) {
	p, err := NewPath([]geom.Point{geom.Pt(2, 2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Position(time.Minute); got != geom.Pt(2, 2) {
		t.Fatalf("Position = %v", got)
	}
}

func TestRandomWaypointConfigValidate(t *testing.T) {
	if err := DefaultWalk().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []RandomWaypointConfig{
		{SpeedMin: 0, SpeedMax: 1},
		{SpeedMin: 2, SpeedMax: 1},
		{SpeedMin: 1, SpeedMax: 2, PauseMin: -time.Second},
		{SpeedMin: 1, SpeedMax: 2, PauseMin: time.Second, PauseMax: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestRandomWaypointStaysInArea(t *testing.T) {
	area := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 8))
	s, err := NewRandomWaypoint(area, DefaultWalk(), 5*time.Minute, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.End() < 5*time.Minute {
		t.Fatalf("schedule too short: %v", s.End())
	}
	for dt := time.Duration(0); dt <= s.End(); dt += time.Second {
		p := s.Position(dt)
		if !area.Contains(p) {
			t.Fatalf("position %v at %v outside area", p, dt)
		}
	}
}

func TestRandomWaypointDeterministic(t *testing.T) {
	area := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 8))
	s1, _ := NewRandomWaypoint(area, DefaultWalk(), time.Minute, rng.New(5))
	s2, _ := NewRandomWaypoint(area, DefaultWalk(), time.Minute, rng.New(5))
	for dt := time.Duration(0); dt <= s1.End(); dt += 500 * time.Millisecond {
		if s1.Position(dt) != s2.Position(dt) {
			t.Fatalf("schedules diverge at %v", dt)
		}
	}
}

func TestRandomWaypointErrors(t *testing.T) {
	area := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	if _, err := NewRandomWaypoint(geom.Rect{}, DefaultWalk(), time.Minute, rng.New(1)); err == nil {
		t.Error("empty area should error")
	}
	if _, err := NewRandomWaypoint(area, DefaultWalk(), 0, rng.New(1)); err == nil {
		t.Error("zero duration should error")
	}
	if _, err := NewRandomWaypoint(area, RandomWaypointConfig{}, time.Minute, rng.New(1)); err == nil {
		t.Error("invalid config should error")
	}
}

func TestTourVisitsMultipleAreas(t *testing.T) {
	areas := []geom.Rect{
		geom.NewRect(geom.Pt(0, 0), geom.Pt(4, 4)),
		geom.NewRect(geom.Pt(6, 0), geom.Pt(10, 4)),
		geom.NewRect(geom.Pt(0, 6), geom.Pt(4, 10)),
	}
	s, err := NewTour(areas, DefaultWalk(), 10*time.Minute, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	visited := make(map[int]bool)
	for dt := time.Duration(0); dt <= s.End(); dt += time.Second {
		p := s.Position(dt)
		for i, a := range areas {
			if a.Contains(p) {
				visited[i] = true
			}
		}
	}
	if len(visited) != len(areas) {
		t.Fatalf("visited %d/%d areas over 10 min", len(visited), len(areas))
	}
}

func TestTourNeverRepeatsAreaImmediately(t *testing.T) {
	areas := []geom.Rect{
		geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)),
		geom.NewRect(geom.Pt(10, 10), geom.Pt(11, 11)),
	}
	s, err := NewTour(areas, DefaultWalk(), 5*time.Minute, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// With two far-apart areas and no immediate repetition, consecutive
	// dwell legs must alternate between the areas.
	var dwellAreas []int
	for _, leg := range s.legs {
		if leg.From == leg.To {
			for i, a := range areas {
				if a.Contains(leg.From) {
					dwellAreas = append(dwellAreas, i)
				}
			}
		}
	}
	for i := 1; i < len(dwellAreas); i++ {
		if dwellAreas[i] == dwellAreas[i-1] {
			t.Fatalf("tour dwelled twice in a row in area %d", dwellAreas[i])
		}
	}
}

func TestTourErrors(t *testing.T) {
	if _, err := NewTour(nil, DefaultWalk(), time.Minute, rng.New(1)); err == nil {
		t.Error("no areas should error")
	}
	if _, err := NewTour([]geom.Rect{{}}, DefaultWalk(), time.Minute, rng.New(1)); err == nil {
		t.Error("empty area should error")
	}
	ok := []geom.Rect{geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))}
	if _, err := NewTour(ok, DefaultWalk(), 0, rng.New(1)); err == nil {
		t.Error("zero duration should error")
	}
	if _, err := NewTour(ok, RandomWaypointConfig{}, time.Minute, rng.New(1)); err == nil {
		t.Error("bad config should error")
	}
}

func TestEmptySchedulePosition(t *testing.T) {
	var s Schedule
	if got := s.Position(time.Second); got != (geom.Point{}) {
		t.Fatalf("empty schedule position = %v", got)
	}
	if s.End() != 0 {
		t.Fatalf("empty schedule end = %v", s.End())
	}
}

// Property: movement speed between consecutive samples never exceeds the
// configured maximum (within numerical tolerance).
func TestQuickSpeedBounded(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultWalk()
		area := geom.NewRect(geom.Pt(0, 0), geom.Pt(20, 15))
		s, err := NewRandomWaypoint(area, cfg, 2*time.Minute, rng.New(seed))
		if err != nil {
			return false
		}
		const step = 100 * time.Millisecond
		prev := s.Position(0)
		for dt := step; dt <= s.End(); dt += step {
			cur := s.Position(dt)
			speed := cur.Dist(prev) / step.Seconds()
			if speed > cfg.SpeedMax+0.01 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: positions are continuous — no teleporting between consecutive
// millisecond samples.
func TestQuickContinuity(t *testing.T) {
	f := func(seed uint64) bool {
		areas := []geom.Rect{
			geom.NewRect(geom.Pt(0, 0), geom.Pt(5, 5)),
			geom.NewRect(geom.Pt(8, 8), geom.Pt(12, 12)),
		}
		s, err := NewTour(areas, DefaultWalk(), time.Minute, rng.New(seed))
		if err != nil {
			return false
		}
		const step = 50 * time.Millisecond
		prev := s.Position(0)
		for dt := step; dt <= s.End(); dt += step {
			cur := s.Position(dt)
			if cur.Dist(prev) > 0.2 { // 1.5 m/s * 50 ms = 0.075 m plus slack
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

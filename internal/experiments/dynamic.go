package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"occusim/internal/building"
	"occusim/internal/core"
	"occusim/internal/device"
	"occusim/internal/filter"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/rng"
	"occusim/internal/scanner"
	"occusim/internal/stats"
)

// dynamicWalk is the Section V dynamic test: dwell next to transmitter
// A, walk to transmitter B at the paper's 1–1.5 m/s, dwell there.
type dynamicWalk struct {
	aID, bID  ibeacon.BeaconID
	walkStart time.Duration // when movement begins
	walkEnd   time.Duration // when the subject arrives at B
	total     time.Duration
}

// dynamicTrace is the filter output of one dynamic run.
type dynamicTrace struct {
	distA, distB Series // filtered distance to each transmitter
}

const (
	dynDwell = 60 * time.Second
	dynSpeed = 1.25 // m/s, centre of the paper's 1–1.5 band
)

// runDynamic walks the corridor once with the given filter coefficient
// and returns the filtered distance traces.
func runDynamic(coeff float64, scanPeriod time.Duration, seed uint64) (*dynamicWalk, *dynamicTrace, error) {
	b := building.TwoBeaconCorridor()
	scn, err := core.NewScenario(core.ScenarioConfig{Building: b, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	start := geom.Pt(1.5, 1.2)
	end := geom.Pt(12.5, 1.2)
	walkTime := time.Duration(start.Dist(end) / dynSpeed * float64(time.Second))
	stops := []mobility.Stop{
		{P: start, Dwell: dynDwell},
		{P: end, Dwell: dynDwell},
	}
	walk, err := mobility.NewStops(stops, dynSpeed)
	if err != nil {
		return nil, nil, err
	}
	dw := &dynamicWalk{
		aID:       b.Beacons[0].ID,
		bID:       b.Beacons[1].ID,
		walkStart: dynDwell,
		walkEnd:   dynDwell + walkTime,
		total:     walk.End(),
	}

	fcfg := filter.PaperConfig()
	fcfg.Coeff = coeff
	hist, err := filter.NewHistory(fcfg)
	if err != nil {
		return nil, nil, err
	}
	trace := &dynamicTrace{}
	_, err = scanner.Attach(scn.World(), "walker", walk, scanner.Config{
		Period:  scanPeriod,
		Profile: device.GalaxyS3Mini(),
		Region:  ibeacon.NewRegion(dw.aID.UUID),
		OnCycle: func(c scanner.Cycle) {
			obs := make([]filter.Observation, 0, len(c.Samples))
			for _, s := range c.Samples {
				obs = append(obs, filter.Observation{
					Beacon: s.Beacon, RSSI: s.RSSI, MeasuredPower: s.MeasuredPower,
				})
			}
			for _, e := range hist.Update(c.End, obs) {
				switch e.Beacon {
				case dw.aID:
					trace.distA.Points = append(trace.distA.Points, Point{T: c.End, V: e.Distance})
				case dw.bID:
					trace.distB.Points = append(trace.distB.Points, Point{T: c.End, V: e.Distance})
				}
			}
		},
	}, rng.New(seed^0xD11A))
	if err != nil {
		return nil, nil, err
	}
	scn.Run(dw.total + scanPeriod)
	return dw, trace, nil
}

// CoeffPoint is one sweep entry of Figure 7.
type CoeffPoint struct {
	// Coeff is the history coefficient under test.
	Coeff float64
	// Stability is the standard deviation of the filtered distance
	// during the second half of the initial dwell (lower is better).
	Stability float64
	// LagSeconds is the delay after arrival at transmitter B until the
	// filtered estimate of B settles within 1 m of the truth (lower is
	// better).
	LagSeconds float64
	// Score combines both, normalised against the sweep (lower is
	// better).
	Score float64
}

// Fig7Result is the coefficient-tuning sweep of Section V ("after some
// parameters tuning we found that 0.65 is a good trade off between
// stability and responsiveness").
type Fig7Result struct {
	Points []CoeffPoint
	// Best is the sweep point with the lowest combined score.
	Best CoeffPoint
}

// Render prints the sweep table.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig7: history-coefficient sweep (dynamic walk, 1.25 m/s)\n")
	b.WriteString("coeff  stability(m)  lag(s)   score\n")
	for _, p := range r.Points {
		marker := ""
		if p.Coeff == r.Best.Coeff {
			marker = "  <= best trade-off"
		}
		fmt.Fprintf(&b, "%5.2f  %11.3f  %6.2f  %6.3f%s\n", p.Coeff, p.Stability, p.LagSeconds, p.Score, marker)
	}
	return b.String()
}

// Fig7 sweeps the filter coefficient over the dynamic walk. Stability
// and responsiveness are normalised to their sweep maxima and summed, so
// the best coefficient balances the two — the paper lands on 0.65.
func Fig7(seed uint64) (*Fig7Result, error) {
	coeffs := []float64{0, 0.15, 0.3, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}
	res := &Fig7Result{}
	trueB := 12.0 // distance to B during the first dwell ≈ 11–12 m

	for _, c := range coeffs {
		// Average the metrics over a few seeds so the sweep is not
		// hostage to one fading realisation.
		var stabSum, lagSum float64
		const reps = 3
		for r := uint64(0); r < reps; r++ {
			dw, trace, err := runDynamic(c, 2*time.Second, seed+r*101)
			if err != nil {
				return nil, err
			}
			// Stability: sd of distance-to-A during the settled half of
			// the first dwell.
			var settled []float64
			for _, p := range trace.distA.Points {
				if p.T > dw.walkStart/2 && p.T <= dw.walkStart {
					settled = append(settled, p.V)
				}
			}
			stabSum += stats.StdDev(settled)
			// Responsiveness: time after arrival until distance-to-B is
			// within 1 m of its true final value (0.5 beyond the walk's
			// geometric 1 m offset).
			lag := (dw.total - dw.walkEnd).Seconds() // worst case: never settles
			for _, p := range trace.distB.Points {
				if p.T >= dw.walkEnd && math.Abs(p.V-1.0) <= 1.0 {
					lag = (p.T - dw.walkEnd).Seconds()
					break
				}
			}
			lagSum += lag
		}
		res.Points = append(res.Points, CoeffPoint{
			Coeff:      c,
			Stability:  stabSum / reps,
			LagSeconds: lagSum / reps,
		})
		_ = trueB
	}

	// Normalise and combine.
	var maxStab, maxLag float64
	for _, p := range res.Points {
		if p.Stability > maxStab {
			maxStab = p.Stability
		}
		if p.LagSeconds > maxLag {
			maxLag = p.LagSeconds
		}
	}
	best := -1
	for i := range res.Points {
		p := &res.Points[i]
		s, l := 0.0, 0.0
		if maxStab > 0 {
			s = p.Stability / maxStab
		}
		if maxLag > 0 {
			l = p.LagSeconds / maxLag
		}
		p.Score = s + l
		if best < 0 || p.Score < res.Points[best].Score {
			best = i
		}
	}
	res.Best = res.Points[best]
	return res, nil
}

// Fig8Result is the dynamic evaluation at the paper's coefficient.
type Fig8Result struct {
	// Coeff is the filter coefficient (0.65).
	Coeff float64
	// DistA and DistB are the filtered distances to the two
	// transmitters over the dwell–walk–dwell trajectory.
	DistA, DistB Series
	// WalkStart and WalkEnd delimit the movement phase.
	WalkStart, WalkEnd time.Duration
	// CrossoverAt is when the estimates swap order (B becomes nearer);
	// physically this happens at the corridor midpoint.
	CrossoverAt time.Duration
	// PhysicalCrossover is when the subject actually passes the
	// midpoint.
	PhysicalCrossover time.Duration
	// FinalErrorB is |estimate − truth| for beacon B at the end.
	FinalErrorB float64
}

// Render prints both traces side by side.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig8: dynamic walk, c = %.2f; walk %.0fs→%.0fs; crossover at %.1fs (physical %.1fs)\n",
		r.Coeff, r.WalkStart.Seconds(), r.WalkEnd.Seconds(),
		r.CrossoverAt.Seconds(), r.PhysicalCrossover.Seconds())
	b.WriteString("distance to A:\n")
	b.WriteString(renderSeries(r.DistA, 0, 14, 56, 30))
	b.WriteString("distance to B:\n")
	b.WriteString(renderSeries(r.DistB, 0, 14, 56, 30))
	return b.String()
}

// Fig8 reproduces Figure 8: with c = 0.65 the filtered estimates track
// the hand-off from transmitter A to transmitter B with modest lag.
func Fig8(seed uint64) (*Fig8Result, error) {
	dw, trace, err := runDynamic(0.65, 2*time.Second, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		Coeff:     0.65,
		DistA:     trace.distA,
		DistB:     trace.distB,
		WalkStart: dw.walkStart,
		WalkEnd:   dw.walkEnd,
	}
	// Physical midpoint crossing: corridor beacons at x = 0.5 and 13.5,
	// so equidistance is at x = 7, reached (7 − 1.5) / 1.25 s after the
	// walk starts.
	res.PhysicalCrossover = dw.walkStart + time.Duration((7.0-1.5)/dynSpeed*float64(time.Second))
	// Estimated crossover: first cycle where B reads closer than A.
	byTime := map[time.Duration]float64{}
	for _, p := range trace.distA.Points {
		byTime[p.T] = p.V
	}
	for _, p := range trace.distB.Points {
		if a, ok := byTime[p.T]; ok && p.V < a && p.T >= dw.walkStart {
			res.CrossoverAt = p.T
			break
		}
	}
	if n := len(trace.distB.Points); n > 0 {
		res.FinalErrorB = math.Abs(trace.distB.Points[n-1].V - 1.0)
	}
	return res, nil
}

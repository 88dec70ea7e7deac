// Package experiments regenerates every figure of the paper's evaluation
// (and the ablations DESIGN.md §4 calls out) on top of the simulated
// substrate. Each experiment is a pure function of its seed(s), returns a
// structured result for tests, and renders a human-readable report.
// All lists them once, in the order cmd/experiments prints them; the
// root package's TestExperimentsTable pins EXPERIMENTS.md's numbers to
// All's canonical run.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"occusim/internal/building"
	"occusim/internal/core"
	"occusim/internal/device"
	"occusim/internal/filter"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/rng"
	"occusim/internal/scanner"
)

// CanonicalSeed is the base seed EXPERIMENTS.md's numbers are measured
// at; Fig10Runs is the paper's repetition count per uplink.
const CanonicalSeed, Fig10Runs = 11, 10

// Renderer is an experiment's result: a report to print, and a
// *…Result to read the numbers from.
type Renderer interface{ Render() string }

// Experiment is one named entry of the evaluation.
type Experiment struct {
	Name string
	Run  func() (Renderer, error)
}

// All is the paper's evaluation — Figs 4–11, Sec V's sample counts —
// then the ablations and surveys, in print order. fig9 always runs its
// canonical 3311/3322/3333 trial family, whatever the seed.
func All(seed uint64, fig10Runs int) []Experiment {
	return []Experiment{
		{"fig4", func() (Renderer, error) { return Fig4(seed) }},
		{"fig5", func() (Renderer, error) { return Fig5(seed) }},
		{"fig6", func() (Renderer, error) { return Fig6(seed) }},
		{"fig7", func() (Renderer, error) { return Fig7(seed) }},
		{"fig8", func() (Renderer, error) { return Fig8(seed) }},
		{"fig9", func() (Renderer, error) { return Fig9(nil) }},
		{"fig10", func() (Renderer, error) { return Fig10(fig10Runs, seed) }},
		{"fig11", func() (Renderer, error) { return Fig11(seed) }},
		{"sec5", func() (Renderer, error) { return Sec5SampleCounts(seed) }},
		{"losshold", func() (Renderer, error) { return AblationLossHold(seed) }},
		{"distmodel", func() (Renderer, error) { return AblationDistanceModel(seed) }},
		{"scanperiod", func() (Renderer, error) { return AblationScanPeriod(seed) }},
		{"motiongate", func() (Renderer, error) { return AblationMotionGating(seed) }},
		{"modelselect", func() (Renderer, error) { return ModelSelection(seed) }},
		{"counting", func() (Renderer, error) { return Counting(4, seed) }},
		{"devicesurvey", func() (Renderer, error) { return DeviceSurvey(seed) }},
		{"pathloss", func() (Renderer, error) { return PathLossValidation(seed) }},
	}
}

// Point is one (t, value) sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named time series with axis labels for rendering.
type Series struct {
	Name   string
	Points []Point
}

// Values extracts the series values.
func (s Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// renderSeries draws a compact ASCII strip chart: one line per sample
// bucket with a marker positioned between lo and hi.
func renderSeries(s Series, lo, hi float64, width, maxRows int) string {
	var b strings.Builder
	step := 1
	if maxRows > 0 && len(s.Points) > maxRows {
		step = (len(s.Points) + maxRows - 1) / maxRows
	}
	for i := 0; i < len(s.Points); i += step {
		p := s.Points[i]
		frac := (p.V - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		pos := int(frac * float64(width-1))
		line := make([]byte, width)
		for j := range line {
			line[j] = ' '
		}
		line[pos] = '*'
		fmt.Fprintf(&b, "%8.1fs |%s| %6.2f\n", p.T.Seconds(), string(line), p.V)
	}
	return b.String()
}

// staticRangingConfig parameterises the shared static-signal harness
// behind Figures 4, 5, 6 and 11.
type staticRangingConfig struct {
	scanPeriod time.Duration
	profile    device.Profile
	distance   float64 // metres from the transmitter
	duration   time.Duration
	filter     filter.Config
	radio      radio.Params
}

// staticRangingResult carries the raw and filtered per-cycle outputs.
type staticRangingResult struct {
	raw      Series // per-cycle distance estimate, no history
	filtered Series // through the configured history filter
	rssi     Series // per-cycle aggregated RSSI
	cycles   int
	dropped  int
	scn      *scanner.Scanner
}

// rawReceptionCount runs the static harness and returns how many raw
// packets the stack decoded in the window.
func rawReceptionCount(prof device.Profile, period, window time.Duration, seed uint64) (int, error) {
	res, err := runStaticRanging(staticRangingConfig{
		scanPeriod: period,
		profile:    prof,
		distance:   2,
		duration:   window,
		filter:     filter.PaperConfig(),
	}, seed)
	if err != nil {
		return 0, err
	}
	return res.scn.Stats().RawReceptions, nil
}

// runStaticRanging places one device at the configured distance from the
// single-room beacon and records every scan cycle.
func runStaticRanging(cfg staticRangingConfig, seed uint64) (*staticRangingResult, error) {
	b := building.SingleRoom()
	beacon := b.Beacons[0]
	if cfg.radio == (radio.Params{}) {
		cfg.radio = radio.DefaultIndoor()
	}
	scn, err := core.NewScenario(core.ScenarioConfig{
		Building: b,
		Seed:     seed,
		Radio:    cfg.radio,
	})
	if err != nil {
		return nil, err
	}
	pos := geom.Pt(beacon.Pos.X+cfg.distance, beacon.Pos.Y)

	hist, err := filter.NewHistory(cfg.filter)
	if err != nil {
		return nil, err
	}
	rawEst := radio.LogDistanceEstimator{Exponent: cfg.radio.Exponent}
	res := &staticRangingResult{
		raw:      Series{Name: "raw"},
		filtered: Series{Name: fmt.Sprintf("filtered(c=%.2f)", cfg.filter.Coeff)},
		rssi:     Series{Name: "rssi"},
	}
	res.scn, err = scanner.Attach(scn.World(), "probe", mobility.Static{P: pos}, scanner.Config{
		Period:  cfg.scanPeriod,
		Profile: cfg.profile,
		Region:  ibeacon.NewRegion(beacon.ID.UUID),
		OnCycle: func(c scanner.Cycle) {
			res.cycles++
			if c.Dropped {
				res.dropped++
			}
			obs := make([]filter.Observation, 0, len(c.Samples))
			for _, s := range c.Samples {
				obs = append(obs, filter.Observation{
					Beacon: s.Beacon, RSSI: s.RSSI, MeasuredPower: s.MeasuredPower,
				})
				if s.Beacon == beacon.ID {
					res.raw.Points = append(res.raw.Points, Point{
						T: c.End, V: rawEst.Estimate(s.RSSI, float64(s.MeasuredPower)),
					})
					res.rssi.Points = append(res.rssi.Points, Point{T: c.End, V: s.RSSI})
				}
			}
			for _, e := range hist.Update(c.End, obs) {
				if e.Beacon == beacon.ID {
					res.filtered.Points = append(res.filtered.Points, Point{T: c.End, V: e.Distance})
				}
			}
		},
	}, rng.New(seed^0x9A0BE))
	if err != nil {
		return nil, err
	}
	scn.Run(cfg.duration)
	return res, nil
}

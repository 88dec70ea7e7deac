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
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/stats"
)

// LossHoldPoint is one row of the loss-hold ablation.
type LossHoldPoint struct {
	// MaxMisses is the consecutive-loss threshold (the paper uses 2).
	MaxMisses int
	// TrackedFraction is the share of scan cycles during which the
	// beacon stayed tracked.
	TrackedFraction float64
	// DropEvents counts how often the beacon was evicted and had to be
	// reacquired (tracking churn).
	DropEvents int
}

// LossHoldResult is the Section V loss-rule ablation: removing a beacon
// on the first missed scan churns the estimate; holding for two losses
// (the paper's rule) rides out stack hiccups.
type LossHoldResult struct {
	Points []LossHoldPoint
}

// Render prints the ablation table.
func (r *LossHoldResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: loss-hold depth (lossy Android stack, static device)\n")
	b.WriteString("maxMisses  tracked%  dropEvents\n")
	for _, p := range r.Points {
		note := ""
		if p.MaxMisses == 2 {
			note = "  <= paper's rule"
		}
		fmt.Fprintf(&b, "%9d  %7.1f%%  %10d%s\n", p.MaxMisses, 100*p.TrackedFraction, p.DropEvents, note)
	}
	return b.String()
}

// AblationLossHold measures beacon-tracking continuity for loss-hold
// depths 1–3 on a device with a lossy stack at the edge of range.
func AblationLossHold(seed uint64) (*LossHoldResult, error) {
	res := &LossHoldResult{}
	prof := device.GalaxyS3Mini()
	prof.ScanLossProb = 0.25 // stress the stack bug

	for _, mm := range []int{1, 2, 3} {
		cfg := staticRangingConfig{
			scanPeriod: 2 * time.Second,
			profile:    prof,
			distance:   5.5, // weak but workable signal
			duration:   6 * time.Minute,
			filter:     filter.Config{Coeff: 0.65, MaxMisses: mm},
		}
		run, err := runStaticRanging(cfg, seed)
		if err != nil {
			return nil, err
		}
		// Tracked fraction: filtered outputs per cycle.
		tracked := len(run.filtered.Points)
		// Drop events: gaps in the filtered series longer than one
		// cycle mean the beacon was evicted and reacquired.
		drops := 0
		for i := 1; i < len(run.filtered.Points); i++ {
			if run.filtered.Points[i].T-run.filtered.Points[i-1].T > cfg.scanPeriod+cfg.scanPeriod/2 {
				drops++
			}
		}
		res.Points = append(res.Points, LossHoldPoint{
			MaxMisses:       mm,
			TrackedFraction: float64(tracked) / float64(run.cycles),
			DropEvents:      drops,
		})
	}
	return res, nil
}

// DistanceModelPoint is one row of the estimator ablation.
type DistanceModelPoint struct {
	TrueDistance float64
	LogRMSE      float64
	RatioRMSE    float64
}

// DistanceModelResult compares the log-distance inversion against the
// Radius Networks ratio curve across the room.
type DistanceModelResult struct {
	Points []DistanceModelPoint
}

// Render prints the comparison table.
func (r *DistanceModelResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: distance estimator RMSE (m) by true distance\n")
	b.WriteString("true(m)  log-distance  ratio-curve\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%7.1f  %12.2f  %11.2f\n", p.TrueDistance, p.LogRMSE, p.RatioRMSE)
	}
	return b.String()
}

// AblationDistanceModel measures both estimators' ranging error at
// several true distances.
func AblationDistanceModel(seed uint64) (*DistanceModelResult, error) {
	res := &DistanceModelResult{}
	for _, d := range []float64{1, 2, 3.5, 5} {
		logRun, err := runStaticRanging(staticRangingConfig{
			scanPeriod: 2 * time.Second,
			profile:    device.GalaxyS3Mini(),
			distance:   d,
			duration:   3 * time.Minute,
			filter: filter.Config{
				Coeff: 0.65, MaxMisses: 2,
				Estimator: radio.LogDistanceEstimator{Exponent: 2.4},
			},
		}, seed)
		if err != nil {
			return nil, err
		}
		ratioRun, err := runStaticRanging(staticRangingConfig{
			scanPeriod: 2 * time.Second,
			profile:    device.GalaxyS3Mini(),
			distance:   d,
			duration:   3 * time.Minute,
			filter: filter.Config{
				Coeff: 0.65, MaxMisses: 2,
				Estimator: radio.RatioCurveEstimator{},
			},
		}, seed)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, DistanceModelPoint{
			TrueDistance: d,
			LogRMSE:      rmseAgainst(logRun.filtered.Values(), d),
			RatioRMSE:    rmseAgainst(ratioRun.filtered.Values(), d),
		})
	}
	return res, nil
}

func rmseAgainst(xs []float64, truth float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += (x - truth) * (x - truth)
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// ScanPeriodPoint is one row of the scan-period ablation.
type ScanPeriodPoint struct {
	Period time.Duration
	// EstimateStdDev is the raw per-cycle estimate spread.
	EstimateStdDev float64
	// UpdatesPerMinute is the estimate refresh rate (the latency cost
	// the paper pays for longer periods).
	UpdatesPerMinute float64
}

// ScanPeriodResult sweeps the scan period, quantifying the Section V
// trade-off behind Figures 4 and 6.
type ScanPeriodResult struct {
	Points []ScanPeriodPoint
}

// Render prints the sweep.
func (r *ScanPeriodResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: scan period sweep (static, D = 2 m, raw estimates)\n")
	b.WriteString("period  est-sd(m)  updates/min\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6v  %9.2f  %11.1f\n", p.Period, p.EstimateStdDev, p.UpdatesPerMinute)
	}
	return b.String()
}

// AblationScanPeriod sweeps scan periods from 1 to 8 seconds.
func AblationScanPeriod(seed uint64) (*ScanPeriodResult, error) {
	res := &ScanPeriodResult{}
	for _, period := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second, 8 * time.Second} {
		run, err := runStaticRanging(staticRangingConfig{
			scanPeriod: period,
			profile:    device.GalaxyS3Mini(),
			distance:   2,
			duration:   4 * time.Minute,
			filter:     filter.PaperConfig(),
		}, seed)
		if err != nil {
			return nil, err
		}
		vals := run.raw.Values()
		res.Points = append(res.Points, ScanPeriodPoint{
			Period:           period,
			EstimateStdDev:   stats.StdDev(vals),
			UpdatesPerMinute: float64(len(vals)) / 4,
		})
	}
	return res, nil
}

// MotionGatingResult quantifies the Section VIII future-work idea: gate
// sensing and reporting on the accelerometer.
type MotionGatingResult struct {
	// UngatedEnergyJ and GatedEnergyJ are app energies over the window
	// for a mostly stationary office worker.
	UngatedEnergyJ, GatedEnergyJ float64
	// SavingFraction is 1 − gated/ungated.
	SavingFraction float64
	// GatedReports and UngatedReports count uplink messages.
	GatedReports, UngatedReports int
}

// Render prints the comparison.
func (r *MotionGatingResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: accelerometer motion gating (Section VIII proposal)\n")
	fmt.Fprintf(&b, "energy: ungated %.0f J, gated %.0f J → saving %.1f%%\n",
		r.UngatedEnergyJ, r.GatedEnergyJ, 100*r.SavingFraction)
	fmt.Fprintf(&b, "reports: ungated %d, gated %d\n", r.UngatedReports, r.GatedReports)
	return b.String()
}

// AblationMotionGating compares a gated and an ungated app on a worker
// who sits for long stretches and occasionally walks.
func AblationMotionGating(seed uint64) (*MotionGatingResult, error) {
	run := func(gate bool) (float64, int, error) {
		b := building.SingleRoom()
		scn, err := core.NewScenario(core.ScenarioConfig{
			Building:    b,
			Seed:        seed,
			AdvInterval: 100 * time.Millisecond,
		})
		if err != nil {
			return 0, 0, err
		}
		// Mostly sitting: long dwells with brief position changes.
		stops := []mobility.Stop{
			{P: geom.Pt(2, 3), Dwell: 20 * time.Minute},
			{P: geom.Pt(4.5, 2), Dwell: 20 * time.Minute},
			{P: geom.Pt(3, 4.5), Dwell: 20 * time.Minute},
		}
		walk, err := mobility.NewStops(stops, 1.2)
		if err != nil {
			return 0, 0, err
		}
		a, err := scn.AddPhone("worker", walk, core.PhoneConfig{
			ScanPeriod: 5 * time.Second,
			MotionGate: gate,
		})
		if err != nil {
			return 0, 0, err
		}
		scn.Run(time.Hour)
		return a.Meter().UsedJ(), a.Stats().ReportsSent, nil
	}
	ungatedJ, ungatedReports, err := run(false)
	if err != nil {
		return nil, err
	}
	gatedJ, gatedReports, err := run(true)
	if err != nil {
		return nil, err
	}
	res := &MotionGatingResult{
		UngatedEnergyJ: ungatedJ,
		GatedEnergyJ:   gatedJ,
		UngatedReports: ungatedReports,
		GatedReports:   gatedReports,
	}
	if ungatedJ > 0 {
		res.SavingFraction = 1 - gatedJ/ungatedJ
	}
	return res, nil
}

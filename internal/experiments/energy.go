package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"occusim/internal/building"
	"occusim/internal/core"
	"occusim/internal/energy"
	"occusim/internal/geom"
	"occusim/internal/mobility"
	"occusim/internal/par"
	"occusim/internal/transport"
)

// Fig10Result reproduces Figure 10: the battery level of a Galaxy S3
// Mini running the app for hours, reporting over Wi-Fi HTTP versus the
// Bluetooth relay, averaged over several runs (the paper averages 10
// measurements).
type Fig10Result struct {
	// Runs is the number of averaged repetitions per uplink.
	Runs int
	// WiFiLevels and BTLevels are the mean battery-level curves.
	WiFiLevels, BTLevels Series
	// WiFiEnergyJ and BTEnergyJ are the mean energies consumed over the
	// observation window.
	WiFiEnergyJ, BTEnergyJ float64
	// WiFiByComponent and BTByComponent attribute the mean energy to
	// phone-base / ble-scan / cpu / uplink.
	WiFiByComponent, BTByComponent map[string]float64
	// SavingFraction is 1 − BT/WiFi — the paper reports ≈15%.
	SavingFraction float64
	// WiFiLifetime and BTLifetime extrapolate time-to-empty — the paper
	// reports ≈10 h with the app installed.
	WiFiLifetime, BTLifetime time.Duration
}

// Render prints the two battery curves and the headline numbers.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig10: battery drain, mean of %d runs per uplink\n", r.Runs)
	fmt.Fprintf(&b, "energy over window: wifi %.0f J, bluetooth %.0f J → saving %.1f%%\n",
		r.WiFiEnergyJ, r.BTEnergyJ, 100*r.SavingFraction)
	fmt.Fprintf(&b, "extrapolated lifetime: wifi %.1f h, bluetooth %.1f h\n",
		r.WiFiLifetime.Hours(), r.BTLifetime.Hours())
	for _, u := range []struct {
		name string
		by   map[string]float64
	}{{"wifi", r.WiFiByComponent}, {"bluetooth", r.BTByComponent}} {
		comps := make([]string, 0, len(u.by))
		for c := range u.by {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		fmt.Fprintf(&b, "%s breakdown:", u.name)
		for _, c := range comps {
			fmt.Fprintf(&b, " %s %.0f J", c, u.by[c])
		}
		b.WriteByte('\n')
	}
	b.WriteString("battery level, wifi uplink:\n")
	b.WriteString(renderSeries(r.WiFiLevels, 0, 1, 50, 24))
	b.WriteString("battery level, bluetooth uplink:\n")
	b.WriteString(renderSeries(r.BTLevels, 0, 1, 50, 24))
	return b.String()
}

// fig10Window is the simulated observation window. Long enough for a
// clean extrapolation, short enough to keep the bench fast.
const fig10Window = 4 * time.Hour

// Fig10 runs the energy comparison with the given number of repetitions
// per uplink (the paper used 10; pass 0 for that default).
func Fig10(runs int, seed uint64) (*Fig10Result, error) {
	if runs <= 0 {
		runs = 10
	}
	res := &Fig10Result{Runs: runs}

	type runOut struct {
		levels []float64
		times  []time.Duration
		usedJ  float64
		life   time.Duration
		byComp map[string]float64
	}
	sample := func(kind energy.Uplink, runSeed uint64) (runOut, error) {
		b := building.SingleRoom()
		scn, err := core.NewScenario(core.ScenarioConfig{
			Building: b,
			Seed:     runSeed,
			// The beacon rate is irrelevant to the energy model; a
			// slower advertiser keeps the long simulation cheap.
			AdvInterval: 100 * time.Millisecond,
		})
		if err != nil {
			return runOut{}, err
		}
		pc := core.PhoneConfig{ScanPeriod: 5 * time.Second, UplinkKind: kind}
		var batched *transport.BatchingUplink
		if kind == energy.Bluetooth {
			uplink, err := scn.BTRelayUplink(0.05)
			if err != nil {
				return runOut{}, err
			}
			pc.Uplink = uplink
		} else {
			// The Wi-Fi path coalesces reports the way a deployed client
			// would against the BMS batch endpoint. Radio energy is
			// charged per report on the client, so the batching is
			// invisible to the Figure 10 metrics.
			batched, err = scn.ServerBatchUplink(transport.BatchConfig{FlushSeconds: 30})
			if err != nil {
				return runOut{}, err
			}
			pc.Uplink = batched
		}
		a, err := scn.AddPhone(fmt.Sprintf("s3mini-%s", kind), mobility.Static{P: geom.Pt(2.5, 3)}, pc)
		if err != nil {
			return runOut{}, err
		}
		scn.Run(fig10Window)
		if batched != nil {
			_ = batched.Flush()
		}
		entries := a.BatteryLog().Entries()
		out := runOut{
			levels: make([]float64, len(entries)),
			times:  make([]time.Duration, len(entries)),
			usedJ:  a.Meter().UsedJ(),
			byComp: a.Meter().ByComponent(),
		}
		for i, e := range entries {
			out.levels[i] = e.Level
			out.times[i] = e.At
		}
		out.life, _ = a.BatteryLog().LifetimeEstimate()
		return out, nil
	}

	average := func(kind energy.Uplink) (Series, float64, time.Duration, map[string]float64, error) {
		var sumLevels []float64
		var times []time.Duration
		var sumEnergy float64
		var sumLife time.Duration
		sumComp := map[string]float64{}
		// Repetitions are independent simulations; fan them out and
		// aggregate in run order so the mean stays deterministic.
		outs := make([]runOut, runs)
		if err := par.ForEach(runs, func(r int) error {
			out, err := sample(kind, seed+uint64(r)*977)
			if err != nil {
				return err
			}
			outs[r] = out
			return nil
		}); err != nil {
			return Series{}, 0, 0, nil, err
		}
		for _, run := range outs {
			if sumLevels == nil {
				sumLevels = make([]float64, len(run.levels))
				times = run.times
			}
			n := len(sumLevels)
			if len(run.levels) < n {
				n = len(run.levels)
			}
			for i := 0; i < n; i++ {
				sumLevels[i] += run.levels[i]
			}
			sumEnergy += run.usedJ
			sumLife += run.life
			for c, j := range run.byComp {
				sumComp[c] += j
			}
		}
		s := Series{}
		for i, t := range times {
			s.Points = append(s.Points, Point{T: t, V: sumLevels[i] / float64(runs)})
		}
		for c := range sumComp {
			sumComp[c] /= float64(runs)
		}
		return s, sumEnergy / float64(runs), sumLife / time.Duration(runs), sumComp, nil
	}

	var err error
	if res.WiFiLevels, res.WiFiEnergyJ, res.WiFiLifetime, res.WiFiByComponent, err = average(energy.WiFi); err != nil {
		return nil, err
	}
	if res.BTLevels, res.BTEnergyJ, res.BTLifetime, res.BTByComponent, err = average(energy.Bluetooth); err != nil {
		return nil, err
	}
	if res.WiFiEnergyJ > 0 {
		res.SavingFraction = 1 - res.BTEnergyJ/res.WiFiEnergyJ
	}
	return res, nil
}

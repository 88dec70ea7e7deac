package experiments

import (
	"fmt"
	"strings"
	"time"

	"occusim/internal/device"
	"occusim/internal/filter"
	"occusim/internal/stats"
)

// DeviceSignal is one handset's RSSI statistics at the common test
// position.
type DeviceSignal struct {
	Model   string
	Summary stats.Summary
}

// Fig11Result reproduces Figure 11: two handsets at the same distance
// from the same transmitter read systematically different signal
// strengths.
type Fig11Result struct {
	Distance float64
	Devices  []DeviceSignal
	// MeanGapDB is the difference of mean RSSI between the two phones.
	MeanGapDB float64
}

// Render prints per-device summaries and a histogram strip.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig11: received signal strength at D = %.1f m, per handset\n", r.Distance)
	for _, d := range r.Devices {
		fmt.Fprintf(&b, "%-24s %s\n", d.Model, d.Summary)
	}
	fmt.Fprintf(&b, "mean gap: %.1f dB (the calibration example learns this offset back)\n", r.MeanGapDB)
	return b.String()
}

// Fig11 records both phones' per-cycle RSSI at 2 m for two minutes each.
func Fig11(seed uint64) (*Fig11Result, error) {
	res := &Fig11Result{Distance: 2.0}
	profiles := []device.Profile{device.GalaxyS3Mini(), device.Nexus5()}
	for i, prof := range profiles {
		run, err := runStaticRanging(staticRangingConfig{
			scanPeriod: 2 * time.Second,
			profile:    prof,
			distance:   res.Distance,
			duration:   2 * time.Minute,
			filter:     filter.PaperConfig(),
		}, seed+uint64(i)) // same seed base; offsets dominate either way
		if err != nil {
			return nil, err
		}
		res.Devices = append(res.Devices, DeviceSignal{
			Model:   prof.Model,
			Summary: stats.Summarize(run.rssi.Values()),
		})
	}
	res.MeanGapDB = res.Devices[1].Summary.Mean - res.Devices[0].Summary.Mean
	return res, nil
}

// SampleCountResult reproduces the Section V sample-count example: with
// a 2 s scan period and a transmitter at ~30 advertisements/s, an
// Android device scanning for 10 s delivers five aggregated samples to
// the app while an iOS device collects hundreds of raw packets.
type SampleCountResult struct {
	Window     time.Duration
	ScanPeriod time.Duration
	// AndroidDelivered is what the Android app sees (one per scan
	// period).
	AndroidDelivered int
	// AndroidRaw is what the Android stack decoded internally.
	AndroidRaw int
	// IOSDelivered is what an iOS app sees (every packet).
	IOSDelivered int
}

// Render prints the comparison.
func (r *SampleCountResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec5: samples in %v at %v scan period (paper: 5 vs 300)\n", r.Window, r.ScanPeriod)
	fmt.Fprintf(&b, "android app samples   %4d\n", r.AndroidDelivered)
	fmt.Fprintf(&b, "android stack packets %4d\n", r.AndroidRaw)
	fmt.Fprintf(&b, "ios app packets       %4d\n", r.IOSDelivered)
	return b.String()
}

// Sec5SampleCounts runs both handsets for the paper's 10 s example.
func Sec5SampleCounts(seed uint64) (*SampleCountResult, error) {
	const window = 10 * time.Second
	const period = 2 * time.Second
	res := &SampleCountResult{Window: window, ScanPeriod: period}

	android := device.GalaxyS3Mini()
	android.ScanLossProb = 0 // the example assumes no stack loss
	aRun, err := runStaticRanging(staticRangingConfig{
		scanPeriod: period,
		profile:    android,
		distance:   2,
		duration:   window,
		filter:     filter.PaperConfig(),
	}, seed)
	if err != nil {
		return nil, err
	}
	res.AndroidDelivered = len(aRun.raw.Points)
	res.AndroidRaw = aRun.scn.Stats().RawReceptions

	iosRaw, err := rawReceptionCount(device.IPhone5S(), period, window, seed)
	if err != nil {
		return nil, err
	}
	res.IOSDelivered = iosRaw
	return res, nil
}

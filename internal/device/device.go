// Package device models the receiving handsets. Each profile captures the
// properties the paper attributes to real phones: the operating system's
// scanning behaviour (Android's one-sample-per-scan restriction vs iOS
// delivering every advertisement, Section V), the BLE stack's sample-loss
// bug, the chipset/antenna RSSI offset that makes two phones at the same
// distance read different signal strengths (Section VIII, Figure 11), and
// the battery feeding the energy model (Section VII).
package device

import (
	"fmt"
	"time"
)

// OS selects the scanning semantics of the handset.
type OS int

const (
	// Android delivers a single aggregated RSSI sample per beacon per
	// scan cycle — "its BLE APIs allows only a single signal strength
	// measurement per scan".
	Android OS = iota
	// IOS delivers every received advertisement — "inside each scan it
	// can collect more than one sample".
	IOS
)

// String implements fmt.Stringer.
func (o OS) String() string {
	switch o {
	case Android:
		return "android"
	case IOS:
		return "ios"
	default:
		return fmt.Sprintf("os(%d)", int(o))
	}
}

// Battery is the electrical storage of the handset.
type Battery struct {
	// CapacitymAh is the rated capacity in milliamp-hours.
	CapacitymAh float64
	// VoltageV is the nominal cell voltage.
	VoltageV float64
}

// EnergyJ returns the total stored energy in joules.
func (b Battery) EnergyJ() float64 {
	return b.CapacitymAh / 1000 * b.VoltageV * 3600
}

// Profile describes one handset model.
type Profile struct {
	// Model is the marketing name, e.g. "Samsung Galaxy S3 Mini".
	Model string
	// OS selects Android or iOS scanning semantics.
	OS OS
	// RSSIOffsetDB is the systematic offset the handset's radio adds to
	// every RSSI reading relative to a reference receiver. Figure 11 of
	// the paper is exactly this effect.
	RSSIOffsetDB float64
	// NoiseSigmaDB is the standard deviation of the per-sample
	// measurement noise added by the receiver chain.
	NoiseSigmaDB float64
	// ScanLossProb is the probability that an entire scan cycle returns
	// nothing due to the BLE stack bug the paper works around ("the
	// adapter sometimes looses some samples due to bugs in the software
	// stack").
	ScanLossProb float64
	// ScanRestartOverhead is the dead time at the start of each scan
	// cycle during which advertisements are missed.
	ScanRestartOverhead time.Duration
	// Battery powers the energy model.
	Battery Battery
}

// Validate reports the first nonsensical field, or nil.
func (p Profile) Validate() error {
	switch {
	case p.Model == "":
		return fmt.Errorf("device: empty model name")
	case p.NoiseSigmaDB < 0:
		return fmt.Errorf("device %s: negative noise sigma", p.Model)
	case p.ScanLossProb < 0 || p.ScanLossProb > 1:
		return fmt.Errorf("device %s: scan loss probability %v outside [0,1]", p.Model, p.ScanLossProb)
	case p.ScanRestartOverhead < 0:
		return fmt.Errorf("device %s: negative scan restart overhead", p.Model)
	case p.Battery.CapacitymAh <= 0 || p.Battery.VoltageV <= 0:
		return fmt.Errorf("device %s: battery must have positive capacity and voltage", p.Model)
	}
	return nil
}

// GalaxyS3Mini returns the profile of the paper's main test device
// (Samsung Galaxy S3 Mini, Android 4.1).
func GalaxyS3Mini() Profile {
	return Profile{
		Model:               "Samsung Galaxy S3 Mini",
		OS:                  Android,
		RSSIOffsetDB:        0, // reference device: calibration was done with it
		NoiseSigmaDB:        1.8,
		ScanLossProb:        0.08,
		ScanRestartOverhead: 50 * time.Millisecond,
		Battery:             Battery{CapacitymAh: 1500, VoltageV: 3.8},
	}
}

// Nexus5 returns the profile of the second device of Figure 11; its radio
// reads several dB hotter than the S3 Mini at the same distance.
func Nexus5() Profile {
	return Profile{
		Model:               "LG Nexus 5",
		OS:                  Android,
		RSSIOffsetDB:        6.0,
		NoiseSigmaDB:        1.2,
		ScanLossProb:        0.04,
		ScanRestartOverhead: 30 * time.Millisecond,
		Battery:             Battery{CapacitymAh: 2300, VoltageV: 3.8},
	}
}

// IPhone5S returns an iOS reference device, used to reproduce the
// Android-vs-iOS sample-count comparison of Section V.
func IPhone5S() Profile {
	return Profile{
		Model:               "Apple iPhone 5S",
		OS:                  IOS,
		RSSIOffsetDB:        2.5,
		NoiseSigmaDB:        1.5,
		ScanLossProb:        0.0,
		ScanRestartOverhead: 0,
		Battery:             Battery{CapacitymAh: 1560, VoltageV: 3.8},
	}
}

// GalaxyS4 returns a contemporary Samsung flagship profile; its BLE
// stack shares the S3 Mini's one-callback restriction but loses fewer
// scans.
func GalaxyS4() Profile {
	return Profile{
		Model:               "Samsung Galaxy S4",
		OS:                  Android,
		RSSIOffsetDB:        2.0,
		NoiseSigmaDB:        1.5,
		ScanLossProb:        0.05,
		ScanRestartOverhead: 40 * time.Millisecond,
		Battery:             Battery{CapacitymAh: 2600, VoltageV: 3.8},
	}
}

// MotoG returns a budget-handset profile with a noisier radio chain,
// useful for stressing the classifier's cross-device robustness.
func MotoG() Profile {
	return Profile{
		Model:               "Motorola Moto G",
		OS:                  Android,
		RSSIOffsetDB:        -3.0,
		NoiseSigmaDB:        2.4,
		ScanLossProb:        0.10,
		ScanRestartOverhead: 60 * time.Millisecond,
		Battery:             Battery{CapacitymAh: 2070, VoltageV: 3.8},
	}
}

// Profiles returns all built-in handset profiles.
func Profiles() []Profile {
	return []Profile{GalaxyS3Mini(), Nexus5(), IPhone5S(), GalaxyS4(), MotoG()}
}

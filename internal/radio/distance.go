package radio

import "math"

// DistanceEstimator converts an observed RSSI and the beacon's calibrated
// measured power (RSSI at 1 m) into an estimated distance in metres. This
// is the receiver-side "ranging" computation from Section III of the
// paper: "knowing the RSSI at 1 meter, and the current RSSI, it is
// possible to calculate the difference".
type DistanceEstimator interface {
	// Estimate returns the distance in metres implied by rssi given the
	// transmitter's calibrated power at 1 m.
	Estimate(rssi, txPowerAt1m float64) float64
}

// LogDistanceEstimator inverts the log-distance path-loss law:
// d = 10^((P1m − RSSI) / (10·n)). The exponent is the receiver's
// assumption and need not match the true channel exponent — the mismatch
// is one source of ranging bias on real devices.
type LogDistanceEstimator struct {
	// Exponent is the assumed path-loss exponent (2.0 if zero).
	Exponent float64
}

// maxDistance clamps both estimators' output, in metres: deep fades
// otherwise explode the estimate to physically silly values.
const maxDistance = 20

func (e LogDistanceEstimator) exponent() float64 {
	if e.Exponent <= 0 {
		return 2.0
	}
	return e.Exponent
}

// Estimate implements DistanceEstimator.
func (e LogDistanceEstimator) Estimate(rssi, txPowerAt1m float64) float64 {
	d := math.Pow(10, (txPowerAt1m-rssi)/(10*e.exponent()))
	if d > maxDistance {
		return maxDistance
	}
	if d < 0.01 {
		return 0.01
	}
	return d
}

// RatioCurveEstimator is the empirical power-curve model popularised by
// the Radius Networks Android library the paper uses (Section IV.C):
//
//	ratio = rssi / txPower
//	d     = ratio^10                         if ratio < 1
//	d     = A·ratio^B + C                    otherwise
//
// with A = 0.89976, B = 7.7095, C = 0.111 fitted on a Nexus 4.
type RatioCurveEstimator struct{}

// Estimate implements DistanceEstimator.
func (e RatioCurveEstimator) Estimate(rssi, txPowerAt1m float64) float64 {
	if rssi == 0 || txPowerAt1m == 0 {
		return maxDistance // no signal information
	}
	ratio := rssi / txPowerAt1m
	var d float64
	if ratio < 1 {
		d = math.Pow(ratio, 10)
	} else {
		d = 0.89976*math.Pow(ratio, 7.7095) + 0.111
	}
	if d > maxDistance {
		return maxDistance
	}
	if d < 0.01 {
		return 0.01
	}
	return d
}

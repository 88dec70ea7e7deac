package radio

import (
	"math"
	"testing"
	"testing/quick"

	"occusim/internal/geom"
	"occusim/internal/rng"
	"occusim/internal/stats"
)

// meanRSSI is the deterministic part of the received power as the BLE
// world reads it: the calibrated power at 1 m plus the link's memoised
// environment term.
func meanRSSI(c *Channel, txPowerAt1m float64, linkID uint64, txPos, rxPos geom.Point) float64 {
	return txPowerAt1m + c.EnvironmentDB(NewMeanCache(), linkID, txPos, rxPos)
}

func mustChannel(t *testing.T, p Params, walls []geom.Segment, seed uint64) *Channel {
	t.Helper()
	c, err := NewChannel(p, walls, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func noShadow() Params {
	p := DefaultIndoor()
	p.ShadowSigmaDB = 0
	return p
}

func TestValidate(t *testing.T) {
	good := DefaultIndoor()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{Exponent: 0, PERSlopeDB: 1},
		{Exponent: 2, WallLossDB: -1, PERSlopeDB: 1},
		{Exponent: 2, ShadowSigmaDB: -1, PERSlopeDB: 1},
		{Exponent: 2, ShadowSigmaDB: 1, ShadowCorrLen: 0, PERSlopeDB: 1},
		{Exponent: 2, RiceK: -1, PERSlopeDB: 1},
		{Exponent: 2, PERSlopeDB: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
	if _, err := NewChannel(Params{}, nil, 1); err == nil {
		t.Error("NewChannel should propagate validation errors")
	}
}

func TestMeanRSSIDecreasesWithDistance(t *testing.T) {
	c := mustChannel(t, noShadow(), nil, 1)
	tx := geom.Pt(0, 0)
	prev := math.Inf(1)
	for d := 1.0; d <= 16; d *= 2 {
		got := meanRSSI(c, -59, 1, tx, geom.Pt(d, 0))
		if got >= prev {
			t.Fatalf("RSSI not monotone: %v at d=%v (prev %v)", got, d, prev)
		}
		prev = got
	}
}

func TestMeanRSSIAtOneMetreEqualsCalibratedPower(t *testing.T) {
	c := mustChannel(t, noShadow(), nil, 1)
	got := meanRSSI(c, -59, 1, geom.Pt(0, 0), geom.Pt(1, 0))
	if math.Abs(got-(-59)) > 1e-9 {
		t.Fatalf("RSSI at 1 m = %v, want -59", got)
	}
}

func TestMeanRSSIPathLossSlope(t *testing.T) {
	p := noShadow()
	p.Exponent = 2.0
	c := mustChannel(t, p, nil, 1)
	tx := geom.Pt(0, 0)
	// Per decade of distance, loss should be 10·n = 20 dB.
	r1 := meanRSSI(c, -59, 1, tx, geom.Pt(1, 0))
	r10 := meanRSSI(c, -59, 1, tx, geom.Pt(10, 0))
	if math.Abs((r1-r10)-20) > 1e-9 {
		t.Fatalf("decade loss = %v dB, want 20", r1-r10)
	}
}

func TestNearFieldClamp(t *testing.T) {
	c := mustChannel(t, noShadow(), nil, 1)
	tx := geom.Pt(0, 0)
	at0 := meanRSSI(c, -59, 1, tx, tx)
	at01 := meanRSSI(c, -59, 1, tx, geom.Pt(0.1, 0))
	if at0 != at01 {
		t.Fatalf("near-field clamp failed: %v vs %v", at0, at01)
	}
	if math.IsInf(at0, 0) || math.IsNaN(at0) {
		t.Fatalf("RSSI at zero distance = %v", at0)
	}
}

func TestWallAttenuation(t *testing.T) {
	walls := []geom.Segment{geom.Seg(geom.Pt(2, -5), geom.Pt(2, 5))}
	p := noShadow()
	c := mustChannel(t, p, walls, 1)
	open := mustChannel(t, p, nil, 1)
	tx, rx := geom.Pt(0, 0), geom.Pt(4, 0)
	withWall := meanRSSI(c, -59, 1, tx, rx)
	without := meanRSSI(open, -59, 1, tx, rx)
	if math.Abs((without-withWall)-p.WallLossDB) > 1e-9 {
		t.Fatalf("wall attenuation = %v dB, want %v", without-withWall, p.WallLossDB)
	}
}

func TestShadowingDeterministicPerPosition(t *testing.T) {
	c := mustChannel(t, DefaultIndoor(), nil, 42)
	tx, rx := geom.Pt(0, 0), geom.Pt(3.7, 1.2)
	a := meanRSSI(c, -59, 7, tx, rx)
	b := meanRSSI(c, -59, 7, tx, rx)
	if a != b {
		t.Fatalf("shadowing not frozen: %v vs %v", a, b)
	}
}

func TestShadowingDiffersAcrossLinks(t *testing.T) {
	c := mustChannel(t, DefaultIndoor(), nil, 42)
	tx, rx := geom.Pt(0, 0), geom.Pt(3.7, 1.2)
	a := meanRSSI(c, -59, 1, tx, rx)
	b := meanRSSI(c, -59, 2, tx, rx)
	if a == b {
		t.Fatal("different links should see different shadowing")
	}
}

func TestShadowingZeroMeanUnitSigma(t *testing.T) {
	p := DefaultIndoor()
	c := mustChannel(t, p, nil, 9)
	// Sample the field over many positions; mean ≈ 0, sd ≈ ShadowSigmaDB.
	var vals []float64
	for i := 0; i < 4000; i++ {
		x := float64(i%80) * 1.7
		y := float64(i/80) * 1.3
		// Isolate shadow: subtract the deterministic path loss.
		rx := geom.Pt(x+1, y)
		tx := geom.Pt(x, y)
		rssi := meanRSSI(c, -59, 3, tx, rx)
		vals = append(vals, rssi-(-59)) // distance exactly 1 m → pure shadow
	}
	m, sd := stats.Mean(vals), stats.StdDev(vals)
	if math.Abs(m) > 0.25 {
		t.Errorf("shadow mean = %v, want ~0", m)
	}
	if math.Abs(sd-p.ShadowSigmaDB) > 0.5 {
		t.Errorf("shadow sd = %v, want ~%v", sd, p.ShadowSigmaDB)
	}
}

func TestShadowingSpatiallySmooth(t *testing.T) {
	c := mustChannel(t, DefaultIndoor(), nil, 11)
	tx := geom.Pt(0, 0)
	// Two receivers 10 cm apart should see nearly identical shadowing;
	// compare against two receivers 10 m apart.
	base := geom.Pt(5, 5)
	near := geom.Pt(5.1, 5)
	far := geom.Pt(15, 5)
	sBase := meanRSSI(c, -59, 1, tx, base) + 10*c.Params().Exponent*math.Log10(base.Dist(tx))
	sNear := meanRSSI(c, -59, 1, tx, near) + 10*c.Params().Exponent*math.Log10(near.Dist(tx))
	sFar := meanRSSI(c, -59, 1, tx, far) + 10*c.Params().Exponent*math.Log10(far.Dist(tx))
	if math.Abs(sBase-sNear) > 1.0 {
		t.Errorf("nearby shadowing differs by %v dB", math.Abs(sBase-sNear))
	}
	_ = sFar // far value may or may not differ; no assertion — correlation is statistical
}

func TestFadingApproxZeroMeanDB(t *testing.T) {
	c := mustChannel(t, DefaultIndoor(), nil, 1)
	r := rng.New(5)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += fadeDB(c, r)
	}
	mean := sum / n
	// Unit mean *power* means E[10^(f/10)] = 1; the dB mean is slightly
	// negative (Jensen), more so for low K. Accept a small band.
	if mean > 0.5 || mean < -3 {
		t.Fatalf("fading dB mean = %v, want in [-3, 0.5]", mean)
	}
}

func TestFadingVarianceShrinksWithK(t *testing.T) {
	pLow := DefaultIndoor()
	pLow.RiceK = 0 // Rayleigh
	pHigh := DefaultIndoor()
	pHigh.RiceK = 20
	cLow := mustChannel(t, pLow, nil, 1)
	cHigh := mustChannel(t, pHigh, nil, 1)
	rL, rH := rng.New(7), rng.New(7)
	var lo, hi []float64
	for i := 0; i < 20000; i++ {
		lo = append(lo, fadeDB(cLow, rL))
		hi = append(hi, fadeDB(cHigh, rH))
	}
	if stats.Variance(hi) >= stats.Variance(lo) {
		t.Fatalf("K=20 fading variance %v should be < K=0 variance %v",
			stats.Variance(hi), stats.Variance(lo))
	}
}

func TestReceptionProb(t *testing.T) {
	c := mustChannel(t, DefaultIndoor(), nil, 1)
	sens := c.Params().SensitivityDBm
	if p := c.ReceptionProb(sens); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("P(recv) at sensitivity = %v, want 0.5", p)
	}
	if p := c.ReceptionProb(sens + 20); p < 0.99 {
		t.Errorf("P(recv) 20 dB above sensitivity = %v, want ≈1", p)
	}
	if p := c.ReceptionProb(sens - 20); p > 0.01 {
		t.Errorf("P(recv) 20 dB below sensitivity = %v, want ≈0", p)
	}
}

func TestReceivedFrequencyMatchesProb(t *testing.T) {
	c := mustChannel(t, DefaultIndoor(), nil, 1)
	r := rng.New(9)
	rssi := c.Params().SensitivityDBm + 2 // P ≈ 0.731
	want := c.ReceptionProb(rssi)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if c.DecideReceived(rssi, r.Float64()) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("reception frequency %v, want %v", got, want)
	}
}

func TestLogDistanceEstimatorRoundTrip(t *testing.T) {
	p := noShadow()
	p.Exponent = 2.4
	c := mustChannel(t, p, nil, 1)
	est := LogDistanceEstimator{Exponent: 2.4}
	tx := geom.Pt(0, 0)
	for _, d := range []float64{0.5, 1, 2, 5, 10} {
		rssi := meanRSSI(c, -59, 1, tx, geom.Pt(d, 0))
		got := est.Estimate(rssi, -59)
		if math.Abs(got-d) > 0.01*d+1e-9 {
			t.Errorf("round trip at %v m → %v m", d, got)
		}
	}
}

func TestLogDistanceEstimatorClamps(t *testing.T) {
	est := LogDistanceEstimator{Exponent: 2.0}
	if got := est.Estimate(-200, -59); got != maxDistance {
		t.Errorf("deep fade estimate = %v, want clamp %v", got, maxDistance)
	}
	if got := est.Estimate(0, -59); got != 0.01 {
		t.Errorf("strong signal estimate = %v, want clamp 0.01", got)
	}
}

func TestLogDistanceDefaults(t *testing.T) {
	est := LogDistanceEstimator{}
	// Default exponent 2.0: 20 dB below the 1 m power is exactly 10 m.
	if got := est.Estimate(-79, -59); math.Abs(got-10) > 1e-9 {
		t.Errorf("default estimate = %v, want 10", got)
	}
}

func TestRatioCurveEstimator(t *testing.T) {
	est := RatioCurveEstimator{}
	// At rssi == txPower the ratio is 1: d = 0.89976 + 0.111 ≈ 1.01 m.
	got := est.Estimate(-59, -59)
	if math.Abs(got-1.01) > 0.01 {
		t.Errorf("estimate at ratio 1 = %v, want ≈1.01", got)
	}
	// Stronger than calibrated → closer than 1 m.
	if d := est.Estimate(-45, -59); d >= 1 {
		t.Errorf("strong-signal distance = %v, want < 1", d)
	}
	// Weaker → farther, monotone.
	d1 := est.Estimate(-70, -59)
	d2 := est.Estimate(-80, -59)
	if !(d2 > d1 && d1 > 1) {
		t.Errorf("monotonicity: d(-70)=%v d(-80)=%v", d1, d2)
	}
	// Zero RSSI means no signal: clamp to max.
	if d := est.Estimate(0, -59); d != 20 {
		t.Errorf("no-signal estimate = %v, want 20", d)
	}
}

// Property: estimated distance is monotone non-increasing in RSSI.
func TestQuickEstimatorMonotone(t *testing.T) {
	ests := []DistanceEstimator{
		LogDistanceEstimator{Exponent: 2.4},
		RatioCurveEstimator{},
	}
	f := func(a, b int8) bool {
		r1 := -30 - math.Abs(float64(a)) // RSSI in [-157, -30]
		r2 := -30 - math.Abs(float64(b))
		if r1 < r2 {
			r1, r2 = r2, r1 // r1 stronger
		}
		for _, e := range ests {
			if e.Estimate(r1, -59) > e.Estimate(r2, -59)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reception probability is within (0, 1) and monotone in RSSI.
func TestQuickReceptionProbMonotone(t *testing.T) {
	c := mustChannel(t, DefaultIndoor(), nil, 1)
	f := func(a, b int8) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		pLo, pHi := c.ReceptionProb(lo-100), c.ReceptionProb(hi-100)
		return pLo >= 0 && pHi <= 1 && pLo <= pHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

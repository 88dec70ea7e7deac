package radio

import (
	"math"
	"testing"

	"occusim/internal/rng"
	"occusim/internal/stats"
)

func TestSlowFadeStationaryVariance(t *testing.T) {
	f := SlowFade{SigmaDB: 3, Tau: 2}
	r := rng.New(1)
	v := r.Normal(0, f.SigmaDB)
	var vals []float64
	for i := 0; i < 50000; i++ {
		v = f.Step(v, 0.5, r.StdNormal())
		vals = append(vals, v)
	}
	if m := stats.Mean(vals); math.Abs(m) > 0.15 {
		t.Errorf("mean = %v, want ~0", m)
	}
	if sd := stats.StdDev(vals); math.Abs(sd-3) > 0.2 {
		t.Errorf("sd = %v, want ~3", sd)
	}
}

func TestSlowFadeCorrelationDecays(t *testing.T) {
	f := SlowFade{SigmaDB: 3, Tau: 2}
	r := rng.New(2)
	v := r.Normal(0, f.SigmaDB)
	const dt = 0.1
	var series []float64
	for i := 0; i < 100000; i++ {
		v = f.Step(v, dt, r.StdNormal())
		series = append(series, v)
	}
	// Lag-1 (0.1 s) autocorrelation ≈ exp(-0.1/2) ≈ 0.95; lag-40 (4 s)
	// ≈ exp(-2) ≈ 0.135.
	ac1 := autocorrelation(t, series, 1)
	ac40 := autocorrelation(t, series, 40)
	if ac1 < 0.9 {
		t.Errorf("lag-0.1s autocorrelation = %v, want ≈0.95", ac1)
	}
	if math.Abs(ac40-math.Exp(-2)) > 0.1 {
		t.Errorf("lag-4s autocorrelation = %v, want ≈%v", ac40, math.Exp(-2))
	}
	if ac40 >= ac1 {
		t.Error("autocorrelation must decay with lag")
	}
}

func TestSlowFadeZeroSigma(t *testing.T) {
	f := SlowFade{SigmaDB: 0, Tau: 2}
	if f.Step(5, 1, 0.7) != 0 {
		t.Error("zero sigma step should be 0")
	}
}

func TestSlowFadeNegativeDtClamped(t *testing.T) {
	f := SlowFade{SigmaDB: 3, Tau: 2}
	// dt < 0 behaves like dt = 0: rho = 1, value unchanged.
	if got := f.Step(1.5, -1, 0.7); got != 1.5 {
		t.Errorf("negative dt changed value: %v", got)
	}
}

func TestSlowFadeLongGapDecorrelates(t *testing.T) {
	f := SlowFade{SigmaDB: 3, Tau: 2}
	// After a gap of many taus the new value is essentially a fresh
	// stationary draw: correlation with the old value is near zero.
	r := rng.New(5)
	var prods, olds, news []float64
	for i := 0; i < 20000; i++ {
		old := r.Normal(0, f.SigmaDB)
		next := f.Step(old, 100, r.StdNormal()) // 50 taus
		prods = append(prods, old*next)
		olds = append(olds, old)
		news = append(news, next)
	}
	corr := stats.Mean(prods) / (stats.StdDev(olds) * stats.StdDev(news))
	if math.Abs(corr) > 0.05 {
		t.Errorf("correlation after long gap = %v, want ~0", corr)
	}
}

func TestChannelSlowFadeAccessor(t *testing.T) {
	p := DefaultIndoor()
	c, err := NewChannel(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := c.SlowFade()
	if f.SigmaDB != p.SlowFadeSigmaDB || f.Tau != p.SlowFadeTau {
		t.Fatalf("accessor = %+v", f)
	}
}

func TestValidateSlowFadeParams(t *testing.T) {
	p := DefaultIndoor()
	p.SlowFadeSigmaDB = -1
	if err := p.Validate(); err == nil {
		t.Error("negative slow-fade sigma should fail")
	}
	p = DefaultIndoor()
	p.SlowFadeSigmaDB = 2
	p.SlowFadeTau = 0
	if err := p.Validate(); err == nil {
		t.Error("zero tau with positive sigma should fail")
	}
}

// autocorrelation estimates the lag-k autocorrelation of a stationary
// series: the least-squares slope of xs[i+lag] on xs[i].
func autocorrelation(t *testing.T, xs []float64, lag int) float64 {
	t.Helper()
	slope, _, err := stats.LinearFit(xs[:len(xs)-lag], xs[lag:])
	if err != nil {
		t.Fatal(err)
	}
	return slope
}

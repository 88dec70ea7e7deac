package radio

import (
	"math"
	"testing"

	"occusim/internal/rng"
)

// TestSlowFadeStepMoments validates the exact OU discretisation on the
// batched-innovation path the link layer uses: from a fixed state v₀,
// one step of dt must have conditional mean ρ·v₀ and conditional
// variance σ²·(1−ρ²) with ρ = exp(−dt/τ).
func TestSlowFadeStepMoments(t *testing.T) {
	f := SlowFade{SigmaDB: 3, Tau: 2}
	const (
		v0 = 4.2
		dt = 0.7
		n  = 400_000
	)
	rho := math.Exp(-dt / f.Tau)
	innov := make([]float64, n)
	rng.New(42).FillStdNormal(innov)
	var s1, s2 float64
	for _, z := range innov {
		v := f.Step(v0, dt, z)
		s1 += v
		s2 += v * v
	}
	mean := s1 / n
	variance := s2/n - mean*mean
	wantMean := rho * v0
	wantVar := f.SigmaDB * f.SigmaDB * (1 - rho*rho)
	if math.Abs(mean-wantMean) > 0.02 {
		t.Errorf("conditional mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.02 {
		t.Errorf("conditional variance = %v, want %v", variance, wantVar)
	}
}

// fadeDB draws one fast-fading term in dB from r's next two normals.
func fadeDB(ch *Channel, r *rng.Source) float64 {
	return ch.RicianFadeDB(r.StdNormal(), r.StdNormal())
}

// TestRicianFadeDBZeroMeanPower checks the unit-mean-power
// normalisation survives the precomputed decomposition: the linear
// power of the fade (10^(dB/10)) must average to ≈1.
func TestRicianFadeDBZeroMeanPower(t *testing.T) {
	ch, err := NewChannel(DefaultIndoor(), nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	const n = 200_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(10, fadeDB(ch, r)/10)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Fatalf("mean linear fading power = %v, want ≈1", mean)
	}
}

// besselI0 is the modified Bessel function of the first kind, order
// zero (Abramowitz & Stegun 9.8.1/9.8.2 polynomial approximations,
// |ε| < 2e-7 — far below the chi-square resolution).
func besselI0(x float64) float64 {
	ax := math.Abs(x)
	if ax < 3.75 {
		t := x / 3.75
		t *= t
		return 1 + t*(3.5156229+t*(3.0899424+t*(1.2067492+
			t*(0.2659732+t*(0.0360768+t*0.0045813)))))
	}
	t := 3.75 / ax
	return math.Exp(ax) / math.Sqrt(ax) *
		(0.39894228 + t*(0.01328592+t*(0.00225319+t*(-0.00157565+
			t*(0.00916281+t*(-0.02057706+t*(0.02635537+
				t*(-0.01647633+t*0.00392377))))))))
}

// ricianPDF is the analytic Rician density with LOS component nu and
// scale sigma.
func ricianPDF(x, nu, sigma float64) float64 {
	if x < 0 {
		return 0
	}
	s2 := sigma * sigma
	return x / s2 * math.Exp(-(x*x+nu*nu)/(2*s2)) * besselI0(x*nu/s2)
}

// TestRicianChiSquare bins 300k fade envelopes (10^(dB/20)) against
// probabilities integrated from the analytic Rician density (Simpson's
// rule per bin) and asserts the chi-square bound: at the default K = 5
// (ν ≈ 0.913, σ ≈ 0.289) and at K = 0, where the envelope is Rayleigh.
func TestRicianChiSquare(t *testing.T) {
	cases := []struct {
		name string
		k    float64
	}{
		{"K5-channel", DefaultIndoor().RiceK},
		{"K0-rayleigh", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultIndoor()
			p.RiceK = tc.k
			ch, err := NewChannel(p, nil, 9)
			if err != nil {
				t.Fatal(err)
			}
			nu, sigma := ch.riceNu, ch.riceSigma
			r := rng.New(606)
			const n = 300_000
			const bins = 40
			hi := nu + 8*sigma
			width := hi / bins
			counts := make([]int, bins+1) // last bin: overflow
			for i := 0; i < n; i++ {
				x := math.Pow(10, fadeDB(ch, r)/20)
				b := int(x / width)
				if b > bins {
					b = bins
				}
				counts[b]++
			}
			// Expected probability per bin via Simpson's rule on the pdf.
			chi2 := 0.0
			tailP := 1.0
			for b := 0; b < bins; b++ {
				lo, mid, up := float64(b)*width, (float64(b)+0.5)*width, (float64(b)+1)*width
				p := width / 6 * (ricianPDF(lo, nu, sigma) +
					4*ricianPDF(mid, nu, sigma) + ricianPDF(up, nu, sigma))
				tailP -= p
				e := p * n
				if e < 1 {
					continue // merged into the tail implicitly below
				}
				d := float64(counts[b]) - e
				chi2 += d * d / e
			}
			if e := tailP * n; e > 1 {
				d := float64(counts[bins]) - e
				chi2 += d * d / e
			}
			// df ≈ 40; χ²₀.₉₉₉(40) ≈ 73.4. Assert a hair above so the
			// fixed-seed value never flakes while real distribution bugs
			// (which shift chi2 by orders of magnitude) still fail.
			if chi2 > 80 {
				t.Fatalf("Rician(ν=%.3f, σ=%.3f) chi-square = %v, want < 80", nu, sigma, chi2)
			}
		})
	}
}

// TestDecideReceivedMatchesProb pins the batched decode decision
// against the exact logistic across the ambiguous band and both fast
// bounds.
func TestDecideReceivedMatchesProb(t *testing.T) {
	ch, err := NewChannel(DefaultIndoor(), nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	for _, rssi := range []float64{-150, -107, -99, -95, -92, -89, -78, -20} {
		p := ch.ReceptionProb(rssi)
		for i := 0; i < 20_000; i++ {
			u := r.Float64()
			if got, want := ch.DecideReceived(rssi, u), u < p; got != want {
				t.Fatalf("rssi %v u %v: DecideReceived = %v, want %v", rssi, u, got, want)
			}
		}
	}
}

package rng

import (
	"math"
	"sort"
	"testing"
)

// ksStatistic returns √n·D_n, the scaled Kolmogorov–Smirnov statistic
// of the samples against the analytic CDF. Under H₀ the scaled
// statistic converges to the Kolmogorov distribution: values above 1.95
// have p < 0.001, so asserting < 2.0 is a tight goodness-of-fit bound
// that still never flakes at our fixed seeds.
func ksStatistic(samples []float64, cdf func(float64) float64) float64 {
	sort.Float64s(samples)
	n := float64(len(samples))
	d := 0.0
	for i, x := range samples {
		f := cdf(x)
		if hi := (float64(i)+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return math.Sqrt(n) * d
}

// ksBound is the in-code KS assertion: √n·D < 2.0 ⇔ p-value > ~0.0007.
const ksBound = 2.0

func stdNormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// TestStdNormalKS validates the ziggurat sampler against the analytic
// normal CDF. This is the primary guard on the table construction: a
// wrong layer boundary, accept threshold or tail handoff shifts mass by
// far more than the KS bound resolves at n = 400k.
func TestStdNormalKS(t *testing.T) {
	r := New(101)
	samples := make([]float64, 400_000)
	r.FillStdNormal(samples)
	if d := ksStatistic(samples, stdNormalCDF); d > ksBound {
		t.Fatalf("StdNormal KS statistic √n·D = %v, want < %v", d, ksBound)
	}
}

// TestStdNormalScalarMatchesFill pins that the scalar and bulk samplers
// are the same algorithm on the same stream.
func TestStdNormalScalarMatchesFill(t *testing.T) {
	a, b := New(55), New(55)
	buf := make([]float64, 1000)
	a.FillStdNormal(buf)
	for i, v := range buf {
		if s := b.StdNormal(); s != v {
			t.Fatalf("draw %d: fill %v vs scalar %v", i, v, s)
		}
	}
}

// TestStdNormalTailRegion forces the ziggurat slow path: draws beyond
// the base-strip boundary zigR can only come from Marsaglia's tail
// method, and their observed frequency must match the analytic tail
// mass 2·(1−Φ(zigR)) ≈ 2.59e-4.
func TestStdNormalTailRegion(t *testing.T) {
	r := New(202)
	const n = 2_000_000
	tail := 0
	deepest := 0.0
	for i := 0; i < n; i++ {
		x := r.StdNormal()
		if a := math.Abs(x); a > zigR {
			tail++
			if a > deepest {
				deepest = a
			}
		}
	}
	want := n * 2 * (1 - stdNormalCDF(zigR))
	if float64(tail) < 0.6*want || float64(tail) > 1.5*want {
		t.Fatalf("tail draws beyond %.3f: got %d, want ≈%.0f", zigR, tail, want)
	}
	// The tail method must actually reach past the boundary, not pile up
	// on it.
	if deepest < zigR+0.3 {
		t.Fatalf("deepest tail draw %v barely clears the boundary %v", deepest, zigR)
	}
}

// TestStdNormalMoments cross-checks mean, variance and kurtosis — the
// KS test is weak in the tails, the fourth moment is not.
func TestStdNormalMoments(t *testing.T) {
	r := New(303)
	const n = 1_000_000
	var s1, s2, s4 float64
	for i := 0; i < n; i++ {
		x := r.StdNormal()
		s1 += x
		s2 += x * x
		s4 += x * x * x * x
	}
	mean := s1 / n
	variance := s2/n - mean*mean
	kurt := s4 / n // E[X⁴] = 3 for the standard normal
	if math.Abs(mean) > 0.005 {
		t.Errorf("mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.01 {
		t.Errorf("variance = %v, want ≈1", variance)
	}
	if math.Abs(kurt-3) > 0.1 {
		t.Errorf("E[X⁴] = %v, want ≈3", kurt)
	}
}

// TestUint64nUnbiased checks the Lemire bounded draw with a bound that
// maximises modulo bias (just above 2⁶³, where the naive Uint64()%n
// would hit the low half of the range twice as often): the fraction of
// draws landing below n/2 must be ~0.5, and a chi-square over a small
// bound must pass.
func TestUint64nUnbiased(t *testing.T) {
	r := New(707)
	n := uint64(1)<<63 + 1
	const draws = 200_000
	low := 0
	for i := 0; i < draws; i++ {
		v := r.Uint64n(n)
		if v >= n {
			t.Fatalf("Uint64n(%d) = %d out of range", n, v)
		}
		if v < n/2 {
			low++
		}
	}
	frac := float64(low) / draws
	// Naive modulo would give ≈ 2/3 here; unbiased is 1/2.
	if math.Abs(frac-0.5) > 0.005 {
		t.Fatalf("low-half fraction = %v, want ≈0.5 (modulo bias?)", frac)
	}

	// Small-bound chi-square: every residue equally likely.
	const k = 7
	counts := make([]int, k)
	for i := 0; i < draws; i++ {
		counts[r.Intn(k)]++
	}
	e := float64(draws) / k
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - e
		chi2 += d * d / e
	}
	// χ²₀.₉₉₉(6) ≈ 22.5.
	if chi2 > 25 {
		t.Fatalf("Intn(%d) chi-square = %v, want < 25", k, chi2)
	}
}

func TestFillFloat64MatchesScalar(t *testing.T) {
	a, b := New(808), New(808)
	buf := make([]float64, 500)
	a.FillFloat64(buf)
	for i, v := range buf {
		if u := b.Float64(); u != v {
			t.Fatalf("draw %d: fill %v vs scalar %v", i, v, u)
		}
	}
}

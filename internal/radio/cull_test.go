package radio

import (
	"testing"

	"occusim/internal/rng"
)

// TestCullMarginStatistical validates the fading-tail model behind
// CullMarginDB empirically: a packet whose mean RSSI sits exactly at the
// cull threshold (sensitivity − margin) must decode with probability far
// below anything a workload could observe. Two million packets through
// the full fading chain (Rician fast fading, stationary slow fade,
// measurement noise, logistic decode draw) should produce essentially no
// decodes; the margin's per-packet bound is 10⁻⁷.
func TestCullMarginStatistical(t *testing.T) {
	params := DefaultIndoor()
	ch, err := NewChannel(params, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	const noiseSigma = 3.0
	margin := ch.CullMarginDB(noiseSigma)
	if margin <= 0 {
		t.Fatalf("margin = %v, want positive", margin)
	}

	gen := ch.SlowFade()
	src := rng.New(123)
	mean := params.SensitivityDBm - margin
	const packets = 2_000_000
	decodes := 0
	for i := 0; i < packets; i++ {
		rssi := mean + fadeDB(ch, src)
		// Worst case for the tail: the stationary slow-fade distribution
		// (a fresh link) plus full measurement noise.
		rssi += gen.SigmaDB*src.StdNormal() + noiseSigma*src.StdNormal()
		if ch.DecideReceived(rssi, src.Float64()) {
			decodes++
		}
	}
	// E[decodes] ≤ packets·ε = 0.2; a handful still passes, dozens means
	// the margin model is wrong.
	if decodes > 5 {
		t.Fatalf("%d of %d packets at the cull threshold decoded; margin %v dB is too tight",
			decodes, packets, margin)
	}
}

// TestCullMarginGrowsWithNoise pins the margin's monotonicity: louder
// per-sample noise widens the tails, so the margin must not shrink.
func TestCullMarginGrowsWithNoise(t *testing.T) {
	ch, err := NewChannel(DefaultIndoor(), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	prev := ch.CullMarginDB(0)
	for _, sigma := range []float64{1, 2, 4, 8} {
		m := ch.CullMarginDB(sigma)
		if m < prev {
			t.Fatalf("margin(%v) = %v < margin at smaller sigma %v", sigma, m, prev)
		}
		prev = m
	}
}

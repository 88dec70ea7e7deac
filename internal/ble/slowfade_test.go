package ble

import (
	"testing"
	"time"

	"occusim/internal/geom"
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/sim"
	"occusim/internal/stats"
)

// collectRSSI runs a static listener for the given duration and returns
// per-second mean RSSI buckets.
func collectRSSI(t *testing.T, params radio.Params, seed uint64, dur time.Duration) []float64 {
	t.Helper()
	ch, err := radio.NewChannel(params, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(sim.NewEngine(), ch, seed)
	type bucket struct {
		sum float64
		n   int
	}
	buckets := map[int]*bucket{}
	err = w.AddListener(&Listener{
		Name:     "probe",
		Mobility: mobility.Static{P: geom.Pt(2, 0)},
		Handler: func(r Reception) {
			b := buckets[int(r.At/time.Second)]
			if b == nil {
				b = &bucket{}
				buckets[int(r.At/time.Second)] = b
			}
			b.sum += r.RSSI
			b.n++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	w.Run(dur)
	out := make([]float64, 0, len(buckets))
	for i := 0; i < int(dur/time.Second); i++ {
		if b := buckets[i]; b != nil && b.n > 0 {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}

func TestSlowFadingMakesSecondsCorrelated(t *testing.T) {
	params := radio.DefaultIndoor()
	params.ShadowSigmaDB = 0 // isolate temporal effects
	withFade := collectRSSI(t, params, 1, 3*time.Minute)

	params.SlowFadeSigmaDB = 0
	without := collectRSSI(t, params, 1, 3*time.Minute)

	// With OU fading the per-second means wander (high lag-1
	// autocorrelation and larger spread); without it the per-second
	// means are nearly constant.
	acWith := autocorrelation(t, withFade, 1)
	sdWith := stats.StdDev(withFade)
	sdWithout := stats.StdDev(without)
	if sdWith <= sdWithout*1.5 {
		t.Fatalf("slow fading should widen per-second spread: %v vs %v", sdWith, sdWithout)
	}
	if acWith < 0.3 {
		t.Fatalf("slow fading should correlate consecutive seconds, ac = %v", acWith)
	}
}

func TestSlowFadingDeterministicPerSeed(t *testing.T) {
	params := radio.DefaultIndoor()
	a := collectRSSI(t, params, 42, time.Minute)
	b := collectRSSI(t, params, 42, time.Minute)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bucket %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSlowFadingIndependentPerLink(t *testing.T) {
	// Two advertisers at the same distance: their per-packet RSSI
	// streams should not be identical (independent OU states), even
	// though path loss matches.
	ch, err := radio.NewChannel(radio.DefaultIndoor(), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(sim.NewEngine(), ch, 7)
	sums := map[string]float64{}
	counts := map[string]int{}
	err = w.AddListener(&Listener{
		Name:     "probe",
		Mobility: mobility.Static{P: geom.Pt(0, 0)},
		Handler: func(r Reception) {
			sums[sender(r)] += r.RSSI
			counts[sender(r)]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = w.AddAdvertiser(newAdvertiser("left", geom.Pt(-2, 0), 33*time.Millisecond))
	_ = w.AddAdvertiser(newAdvertiser("right", geom.Pt(2, 0), 33*time.Millisecond))
	w.Run(30 * time.Second)
	if counts["left"] == 0 || counts["right"] == 0 {
		t.Fatal("missing receptions")
	}
	meanL := sums["left"] / float64(counts["left"])
	meanR := sums["right"] / float64(counts["right"])
	if meanL == meanR {
		t.Fatal("independent links produced identical means")
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

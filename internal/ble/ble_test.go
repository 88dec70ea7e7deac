package ble

import (
	"fmt"
	"math"
	"testing"
	"time"

	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/rng"
	"occusim/internal/sim"
	"occusim/internal/stats"
)

func testChannel(t *testing.T) *radio.Channel {
	t.Helper()
	p := radio.DefaultIndoor()
	ch, err := radio.NewChannel(p, nil, 77)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// senders maps each test advertiser's payload back to its name: a
// reception carries only what was transmitted, so the tests tell
// advertisers apart by it.
var senders = map[string]string{}

// sender names the advertiser r came from.
func sender(r Reception) string { return senders[string(r.Payload)] }

// namedPayload is name's iBeacon packet: every name gets its own minor.
func namedPayload(name string) []byte {
	for p, n := range senders {
		if n == name {
			return []byte(p)
		}
	}
	p := ibeacon.Packet{
		UUID:          ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001"),
		Major:         1,
		Minor:         uint16(1 + len(senders)),
		MeasuredPower: -59,
	}
	payload := p.Marshal()
	senders[string(payload)] = name
	return payload
}

func newAdvertiser(name string, pos geom.Point, interval time.Duration) *Advertiser {
	return &Advertiser{
		Name:         name,
		Payload:      namedPayload(name),
		LinkID:       1,
		PowerAt1mDBm: -59,
		Interval:     interval,
		Pos:          pos,
	}
}

func TestAdvertiserValidate(t *testing.T) {
	a := newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *a
	bad.Payload = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty payload should fail")
	}
	bad = *a
	bad.Interval = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero interval should fail")
	}
}

func TestListenerValidate(t *testing.T) {
	ok := &Listener{
		Name:     "phone",
		Mobility: mobility.Static{P: geom.Pt(2, 0)},
		Handler:  func(Reception) {},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Listener{
		{Name: "no-mobility", Handler: func(Reception) {}},
		{Name: "no-handler", Mobility: mobility.Static{}},
		{Name: "bad-capture", Mobility: mobility.Static{}, Handler: func(Reception) {}, CaptureProb: 1.5},
		{Name: "bad-noise", Mobility: mobility.Static{}, Handler: func(Reception) {}, NoiseSigmaDB: -1},
	}
	for _, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("listener %q should fail validation", l.Name)
		}
	}
}

func TestAdvertisingRateMatchesInterval(t *testing.T) {
	w := NewWorld(sim.NewEngine(), testChannel(t), 1)
	var count int
	if err := w.AddListener(&Listener{
		Name:     "phone",
		Mobility: mobility.Static{P: geom.Pt(1, 0)},
		Handler:  func(Reception) { count++ },
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	w.Run(10 * time.Second)
	// ~30/s nominal minus the 0-10 ms jitter → ≈ 26.3/s expected; at 1 m
	// nearly every packet is decodable. Accept a generous band.
	if count < 200 || count > 320 {
		t.Fatalf("receptions in 10 s = %d, want ≈ 250-300", count)
	}
}

func TestCaptureProbScalesReceptions(t *testing.T) {
	countWith := func(capture float64) int {
		w := NewWorld(sim.NewEngine(), testChannel(t), 2)
		n := 0
		_ = w.AddListener(&Listener{
			Name:        "phone",
			Mobility:    mobility.Static{P: geom.Pt(1, 0)},
			CaptureProb: capture,
			Handler:     func(Reception) { n++ },
		})
		_ = w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond))
		w.Run(20 * time.Second)
		return n
	}
	full := countWith(1.0)
	tenth := countWith(0.1)
	ratio := float64(tenth) / float64(full)
	if math.Abs(ratio-0.1) > 0.04 {
		t.Fatalf("capture 0.1 ratio = %v (%d/%d), want ≈ 0.1", ratio, tenth, full)
	}
}

func TestRSSIDropsWithDistance(t *testing.T) {
	collect := func(d float64) []float64 {
		w := NewWorld(sim.NewEngine(), testChannel(t), 3)
		var rssis []float64
		_ = w.AddListener(&Listener{
			Name:     "phone",
			Mobility: mobility.Static{P: geom.Pt(d, 0)},
			Handler:  func(r Reception) { rssis = append(rssis, r.RSSI) },
		})
		_ = w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond))
		w.Run(10 * time.Second)
		return rssis
	}
	near := stats.Mean(collect(1))
	far := stats.Mean(collect(8))
	if near <= far {
		t.Fatalf("mean RSSI near (%v) should exceed far (%v)", near, far)
	}
	if near > -40 || near < -75 {
		t.Fatalf("mean RSSI at 1 m = %v, want around -59", near)
	}
}

func TestDeviceOffsetShiftsRSSI(t *testing.T) {
	collect := func(offset float64) float64 {
		w := NewWorld(sim.NewEngine(), testChannel(t), 4)
		var rssis []float64
		_ = w.AddListener(&Listener{
			Name:     "phone",
			Mobility: mobility.Static{P: geom.Pt(2, 0)},
			OffsetDB: offset,
			Handler:  func(r Reception) { rssis = append(rssis, r.RSSI) },
		})
		_ = w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond))
		w.Run(10 * time.Second)
		return stats.Mean(rssis)
	}
	base := collect(0)
	hot := collect(6)
	if diff := hot - base; math.Abs(diff-6) > 1.0 {
		t.Fatalf("offset shift = %v dB, want ≈ 6", diff)
	}
}

func TestFarListenerLosesPackets(t *testing.T) {
	// At extreme range the RSSI falls below sensitivity and most packets
	// are lost.
	w := NewWorld(sim.NewEngine(), testChannel(t), 5)
	near, far := 0, 0
	_ = w.AddListener(&Listener{
		Name:     "near",
		Mobility: mobility.Static{P: geom.Pt(1, 0)},
		Handler:  func(Reception) { near++ },
	})
	_ = w.AddListener(&Listener{
		Name:     "far",
		Mobility: mobility.Static{P: geom.Pt(300, 0)},
		Handler:  func(Reception) { far++ },
	})
	_ = w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond))
	w.Run(10 * time.Second)
	if far >= near/2 {
		t.Fatalf("far listener received %d packets vs near %d", far, near)
	}
}

func TestMultipleAdvertisersDistinguishedByName(t *testing.T) {
	w := NewWorld(sim.NewEngine(), testChannel(t), 6)
	byName := map[string]int{}
	_ = w.AddListener(&Listener{
		Name:     "phone",
		Mobility: mobility.Static{P: geom.Pt(2, 0)},
		Handler:  func(r Reception) { byName[sender(r)]++ },
	})
	_ = w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond))
	_ = w.AddAdvertiser(newAdvertiser("b2", geom.Pt(4, 0), 33*time.Millisecond))
	w.Run(5 * time.Second)
	if byName["b1"] == 0 || byName["b2"] == 0 {
		t.Fatalf("receptions by name = %v", byName)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() []float64 {
		w := NewWorld(sim.NewEngine(), testChannel(t), 99)
		var rssis []float64
		_ = w.AddListener(&Listener{
			Name:     "phone",
			Mobility: mobility.Static{P: geom.Pt(2, 0)},
			Handler:  func(r Reception) { rssis = append(rssis, r.RSSI) },
		})
		_ = w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond))
		w.Run(5 * time.Second)
		return rssis
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RSSI %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMovingListenerSeesTrend(t *testing.T) {
	// A listener walking away from the transmitter should see decreasing
	// RSSI trend.
	w := NewWorld(sim.NewEngine(), testChannel(t), 7)
	walk, err := mobility.NewPath([]geom.Point{geom.Pt(1, 0), geom.Pt(12, 0)}, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		at   time.Duration
		rssi float64
	}
	var samples []sample
	_ = w.AddListener(&Listener{
		Name:     "walker",
		Mobility: walk,
		Handler:  func(r Reception) { samples = append(samples, sample{r.At, r.RSSI}) },
	})
	_ = w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond))
	w.Run(10 * time.Second)
	if len(samples) < 50 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	var ts, rs []float64
	for _, s := range samples {
		ts = append(ts, s.at.Seconds())
		rs = append(rs, s.rssi)
	}
	slope, _, err := stats.LinearFit(ts, rs)
	if err != nil {
		t.Fatal(err)
	}
	if slope >= 0 {
		t.Fatalf("RSSI slope while walking away = %v, want negative", slope)
	}
}

func TestAddInvalidComponentsFail(t *testing.T) {
	w := NewWorld(sim.NewEngine(), testChannel(t), 8)
	if err := w.AddAdvertiser(&Advertiser{Name: "bad"}); err == nil {
		t.Error("invalid advertiser accepted")
	}
	if err := w.AddListener(&Listener{Name: "bad"}); err == nil {
		t.Error("invalid listener accepted")
	}
}

func TestCollisionProbGrowsWithAdvertisers(t *testing.T) {
	w := NewWorld(sim.NewEngine(), testChannel(t), 9)
	_ = w.AddListener(&Listener{
		Name:     "phone",
		Mobility: mobility.Static{P: geom.Pt(1, 0)},
		Handler:  func(Reception) {},
	})
	for i := 0; i < 5; i++ {
		a := newAdvertiser("b", geom.Pt(0, 0), 33*time.Millisecond)
		a.Name = a.Name + string(rune('0'+i))
		if err := w.AddAdvertiser(a); err != nil {
			t.Fatal(err)
		}
	}
	// With 5 advertisers each at 33 ms interval: p = 4 · 2·0.4/33 / 3 ≈ 3.2%.
	p := w.collisionProb[0]
	if p <= 0 || p > 0.1 {
		t.Fatalf("collision probability = %v, want small positive", p)
	}
	// All advertisers share the same interval → same collision exposure.
	for i, q := range w.collisionProb {
		if math.Abs(q-p) > 1e-12 {
			t.Fatalf("collisionProb[%d] = %v, want %v", i, q, p)
		}
	}
}

func TestRngSplitStability(t *testing.T) {
	// Adding a listener after advertisers must not perturb the
	// advertisers' jitter stream: check reception count is unchanged by
	// listener registration order of an unrelated second listener.
	countFirst := func(addSecond bool) int {
		w := NewWorld(sim.NewEngine(), testChannel(t), 10)
		n := 0
		_ = w.AddListener(&Listener{
			Name:     "phone",
			Mobility: mobility.Static{P: geom.Pt(1, 0)},
			Handler:  func(Reception) { n++ },
		})
		if addSecond {
			_ = w.AddListener(&Listener{
				Name:     "other",
				Mobility: mobility.Static{P: geom.Pt(3, 0)},
				Handler:  func(Reception) {},
			})
		}
		_ = w.AddAdvertiser(newAdvertiser("b1", geom.Pt(0, 0), 33*time.Millisecond))
		w.Run(5 * time.Second)
		return n
	}
	if a, b := countFirst(false), countFirst(true); a != b {
		t.Fatalf("first listener's receptions changed when another listener was added: %d vs %d", a, b)
	}
}

func TestRngSource(t *testing.T) {
	// Sanity: each listener gets an independent source after AddListener.
	w := NewWorld(sim.NewEngine(), testChannel(t), 11)
	l1 := &Listener{Name: "a", Mobility: mobility.Static{}, Handler: func(Reception) {}}
	l2 := &Listener{Name: "b", Mobility: mobility.Static{}, Handler: func(Reception) {}}
	_ = w.AddListener(l1)
	_ = w.AddListener(l2)
	if l1.src == nil || l2.src == nil || l1.src == l2.src {
		t.Fatal("listeners must get distinct rng sources")
	}
	_ = rng.New(0) // keep import used meaningfully in case of refactors
}

// TestCaptureGapTableMatchesInversion pins that the guide-table gap
// draw is the same geometric distribution as analytic inversion: for a
// sweep of uniforms the table answer must equal
// ceil(ln(1−u)/ln(1−p)), and the guide must never start past the
// answer.
func TestCaptureGapTableMatchesInversion(t *testing.T) {
	w := NewWorld(sim.NewEngine(), testChannel(t), 77)
	for _, p := range []float64{0.02, 0.12, 0.5, 0.9} {
		l := &Listener{
			Name:        "probe",
			Mobility:    mobility.Static{P: geom.Pt(1, 0)},
			CaptureProb: p,
			Handler:     func(Reception) {},
		}
		if err := w.AddListener(l); err != nil {
			t.Fatal(err)
		}
		src := rng.New(uint64(1000 * p))
		for i := 0; i < 200_000; i++ {
			u := src.Float64()
			want := math.Ceil(math.Log1p(-u) / l.lnMissProb)
			if want < 1 {
				want = 1
			}
			got := uint64(0)
			for k := int(l.gapGuide[int(u*gapGuideLen)]); k < gapTableLen; k++ {
				if u < l.gapCDF[k] {
					got = uint64(k + 1)
					break
				}
			}
			if got == 0 {
				// Tail fallback region: inversion must agree it is past
				// the table.
				if want <= gapTableLen {
					// Floating-point disagreement exactly at the table
					// boundary is tolerated one step either way.
					if float64(gapTableLen)-want > 1 {
						t.Fatalf("p=%v u=%v: table says tail, inversion says %v", p, u, want)
					}
				}
				continue
			}
			if got != uint64(want) {
				t.Fatalf("p=%v u=%v: table gap %d, inversion %v", p, u, got, want)
			}
		}
	}
}

// TestWindowPartitionInvarianceMobileDutyCycled extends the partition
// pin to the fully batched path: several advertisers, a duty-cycled
// walker (geometric skip-ahead + per-packet positions) and a full-
// capture static listener must all see identical per-link reception
// streams however the simulated time is chopped. Within one window
// receptions are enumerated per (advertiser, listener), so only the
// per-link order is observable — the comparison groups accordingly.
func TestWindowPartitionInvarianceMobileDutyCycled(t *testing.T) {
	run := func(step time.Duration) map[string][]Reception {
		w := NewWorld(sim.NewEngine(), testChannel(t), 321)
		recs := map[string][]Reception{}
		walk, err := mobility.NewPath([]geom.Point{
			geom.Pt(0.5, 0), geom.Pt(3, 0), geom.Pt(3, 2),
		}, 1.25)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddListener(&Listener{
			Name:         "walker",
			Mobility:     walk,
			CaptureProb:  0.12,
			NoiseSigmaDB: 1,
			Handler: func(r Reception) {
				recs["walker/"+sender(r)] = append(recs["walker/"+sender(r)], r)
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.AddListener(&Listener{
			Name:     "static",
			Mobility: mobility.Static{P: geom.Pt(2, 1)},
			Handler: func(r Reception) {
				recs["static/"+sender(r)] = append(recs["static/"+sender(r)], r)
			},
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("b%d", i)
			if err := w.AddAdvertiser(newAdvertiser(name, geom.Pt(float64(i), 0), 33*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		// The step divides the duration exactly, so both runs simulate
		// the same span.
		for elapsed := time.Duration(0); elapsed < 12*time.Second; elapsed += step {
			w.Run(step)
		}
		return recs
	}
	oneShot := run(12 * time.Second)
	chopped := run(125 * time.Millisecond)
	if len(oneShot) != 6 {
		t.Fatalf("links heard = %d, want 6", len(oneShot))
	}
	for link, a := range oneShot {
		b := chopped[link]
		if len(a) == 0 {
			t.Fatalf("link %s: no receptions", link)
		}
		if len(a) != len(b) {
			t.Fatalf("link %s: reception counts differ: %d vs %d", link, len(a), len(b))
		}
		for i := range a {
			if a[i].At != b[i].At || a[i].RSSI != b[i].RSSI {
				t.Fatalf("link %s reception %d differs: %+v vs %+v", link, i, a[i], b[i])
			}
		}
	}
}

package store

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
)

var (
	idA = ibeacon.BeaconID{UUID: ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001"), Major: 1, Minor: 1}
	idB = ibeacon.BeaconID{UUID: ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001"), Major: 1, Minor: 2}
)

// addOne lands one observation through AddObservationBatch and returns
// whether it was fresh.
// history copies the device's retained observations out of the store's
// cut, the view a snapshot writer serialises.
func history(s *Store, device string) []Observation {
	for _, d := range s.Cut().Devices {
		if d.Device == device {
			return append([]Observation(nil), d.History...)
		}
	}
	return nil
}

func addOne(s *Store, o Observation) (bool, error) {
	fresh, err := s.AddObservationBatch([]Observation{o})
	if err != nil {
		return false, err
	}
	return fresh[0], nil
}

func mkObs(device string, at time.Duration, ids ...ibeacon.BeaconID) Observation {
	o := Observation{Device: device, At: at}
	for _, id := range ids {
		o.Beacons = append(o.Beacons, BeaconDistance{ID: id, Distance: 2, RSSI: -65})
	}
	return o
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero retention should fail")
	}
}

func TestAddAndLatest(t *testing.T) {
	s, _ := New(10)
	if _, err := addOne(s, mkObs("p", time.Second, idA)); err != nil {
		t.Fatal(err)
	}
	if _, err := addOne(s, mkObs("p", 2*time.Second, idB)); err != nil {
		t.Fatal(err)
	}
	latest, ok := s.Latest("p")
	if !ok || latest.At != 2*time.Second {
		t.Fatalf("latest = %+v, %v", latest, ok)
	}
	if _, ok := s.Latest("ghost"); ok {
		t.Fatal("latest of unknown device")
	}
	if _, err := addOne(s, Observation{}); err == nil {
		t.Fatal("empty device should fail")
	}
}

func TestRetentionEvictsOldest(t *testing.T) {
	s, _ := New(3)
	for i := 1; i <= 5; i++ {
		_, _ = addOne(s, mkObs("p", time.Duration(i)*time.Second))
	}
	h := history(s, "p")
	if len(h) != 3 {
		t.Fatalf("history = %d", len(h))
	}
	if h[0].At != 3*time.Second || h[2].At != 5*time.Second {
		t.Fatalf("kept wrong window: %v .. %v", h[0].At, h[2].At)
	}
}

func TestDevices(t *testing.T) {
	s, _ := New(5)
	_, _ = addOne(s, mkObs("zed", time.Second))
	_, _ = addOne(s, mkObs("amy", time.Second))
	d := s.KnownDevices()
	if len(d) != 2 || d[0] != "amy" || d[1] != "zed" {
		t.Fatalf("devices = %v", d)
	}
}

func TestFingerprints(t *testing.T) {
	s, _ := New(5)
	if err := s.AddFingerprint(fingerprint.Sample{Room: ""}); err == nil {
		t.Fatal("unlabelled fingerprint should fail")
	}
	_ = s.AddFingerprint(fingerprint.Sample{
		Room:      "kitchen",
		Distances: map[ibeacon.BeaconID]float64{idA: 2},
	})
	_ = s.AddFingerprint(fingerprint.Sample{
		Room:      "living",
		Distances: map[ibeacon.BeaconID]float64{idB: 3},
	})
	if s.FingerprintCount() != 2 {
		t.Fatalf("count = %d", s.FingerprintCount())
	}
	ds := s.FingerprintDataset()
	if ds.Len() != 2 {
		t.Fatalf("dataset len = %d", ds.Len())
	}
	if len(ds.Beacons) != 2 {
		t.Fatalf("dataset beacons = %v", ds.Beacons)
	}
}

func TestBeaconOrderIsFirstSeen(t *testing.T) {
	s, _ := New(5)
	_, _ = addOne(s, mkObs("p", time.Second, idB))
	_, _ = addOne(s, mkObs("p", 2*time.Second, idA, idB))
	bs := s.FingerprintDataset().Beacons
	if len(bs) != 2 || bs[0] != idB || bs[1] != idA {
		t.Fatalf("beacon order = %v", bs)
	}
}

func TestModelVersioning(t *testing.T) {
	s, _ := New(5)
	if blob, v := s.Model(); blob != nil || v != 0 {
		t.Fatal("fresh store should have no model")
	}
	v1, _ := s.InstallModel([]byte("model-1"), 0)
	v2, _ := s.InstallModel([]byte("model-2"), 0)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions = %d, %d", v1, v2)
	}
	blob, v := s.Model()
	if string(blob) != "model-2" || v != 2 {
		t.Fatalf("model = %q v%d", blob, v)
	}
	// Stored blob is a copy.
	blob[0] = 'X'
	again, _ := s.Model()
	if string(again) != "model-2" {
		t.Fatal("model aliases caller memory")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := New(100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := string(rune('a' + g))
			for i := 0; i < 100; i++ {
				_, _ = addOne(s, mkObs(dev, time.Duration(i)*time.Millisecond, idA))
				s.Latest(dev)
				s.KnownDevices()
				s.FingerprintDataset()
			}
		}(g)
	}
	wg.Wait()
	if len(s.KnownDevices()) != 8 {
		t.Fatalf("devices = %d", len(s.KnownDevices()))
	}
}

// Property: history length never exceeds the retention bound.
func TestQuickRetentionBound(t *testing.T) {
	f := func(n uint8, cap uint8) bool {
		c := int(cap%20) + 1
		s, err := New(c)
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			_, _ = addOne(s, mkObs("p", time.Duration(i)*time.Second))
		}
		return len(history(s, "p")) <= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInstallModelVersionMonotonic pins the distributed-install
// contract: stale and duplicate snapshot versions are ignored (retries
// are idempotent, out-of-order distributions converge on the newest
// model), newer versions land, and non-positive versions fall back to
// the local counter.
func TestInstallModelVersionMonotonic(t *testing.T) {
	s, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.InstallModel([]byte(`{"m":1}`), 3); !ok || v != 3 {
		t.Fatalf("fresh install = (%d, %v), want (3, true)", v, ok)
	}
	if v, ok := s.InstallModel([]byte(`{"m":2}`), 3); ok || v != 3 {
		t.Fatalf("duplicate version install = (%d, %v), want (3, false)", v, ok)
	}
	if v, ok := s.InstallModel([]byte(`{"m":2}`), 2); ok || v != 3 {
		t.Fatalf("stale version install = (%d, %v), want (3, false)", v, ok)
	}
	blob, version := s.Model()
	if string(blob) != `{"m":1}` || version != 3 {
		t.Fatalf("model after stale installs = (%s, %d), want the v3 blob", blob, version)
	}
	if v, ok := s.InstallModel([]byte(`{"m":9}`), 5); !ok || v != 5 {
		t.Fatalf("newer install = (%d, %v), want (5, true)", v, ok)
	}
	if v, ok := s.InstallModel([]byte(`{"m":10}`), 0); !ok || v != 6 {
		t.Fatalf("unversioned install = (%d, %v), want (6, true)", v, ok)
	}
}

// TestCutHistoryViewsAreUnchanging: the history a Cut hands out is the
// store's own array, not a copy, and must read as it stood at the cut
// while ingest appends behind it, slides the retention window forward
// and reallocates — and after the device is expired or evicted.
func TestCutHistoryViewsAreUnchanging(t *testing.T) {
	const retain = 8
	s, _ := New(retain)
	devices := []string{"a", "b", "c", "expired", "evicted", "marked-only"}
	add := func(dev string, i int) {
		o := mkObs(dev, time.Duration(i)*time.Second, idA)
		o.Epoch, o.Seq = 1, uint64(i+1)
		if fresh, err := addOne(s, o); err != nil || !fresh {
			t.Errorf("observation %d of %s: fresh=%v err=%v", i, dev, fresh, err)
		}
	}
	for k, dev := range devices[:5] {
		for i := 0; i < 3+2*k; i++ { // below, at and past the bound
			add(dev, i)
		}
	}
	s.InstallSeqMark("marked-only", 2, 7)

	// Nothing is mutating: this is the hold.
	cut := s.Cut()
	want := map[string][]Observation{}
	for _, dev := range devices {
		want[dev] = history(s, dev)
	}
	if len(cut.Devices) != len(devices) {
		t.Fatalf("the cut holds %d devices, want %d", len(cut.Devices), len(devices))
	}

	var wg sync.WaitGroup
	for k, dev := range devices[:3] {
		wg.Add(1)
		go func(dev string, from int) {
			defer wg.Done()
			for i := from; i < from+5*retain; i++ {
				add(dev, i)
			}
		}(dev, 3+2*k)
	}
	s.ExpireDevice("expired")
	s.EvictDevice("evicted")
	check := func() {
		for _, d := range cut.Devices {
			if !reflect.DeepEqual(append([]Observation(nil), d.History...), want[d.Device]) {
				t.Fatalf("%s's view changed behind the cut:\n got %+v\nwant %+v", d.Device, d.History, want[d.Device])
			}
			if epoch, seq := uint64(1), uint64(len(want[d.Device])); d.Device != "marked-only" && (d.Epoch != epoch || d.Seq < seq) {
				t.Fatalf("%s's mark in the cut is (%d, %d)", d.Device, d.Epoch, d.Seq)
			}
		}
	}
	check()
	wg.Wait()
	check()
	if got := history(s, "a"); reflect.DeepEqual(got, want["a"]) || len(history(s, "expired"))+len(history(s, "evicted")) != 0 {
		t.Fatal("vacuous: the store did not move behind the cut")
	}
}

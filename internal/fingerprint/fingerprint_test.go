package fingerprint

import (
	"testing"
	"testing/quick"
	"time"

	"occusim/internal/filter"
	"occusim/internal/ibeacon"
)

var (
	idA = ibeacon.BeaconID{UUID: ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001"), Major: 1, Minor: 1}
	idB = ibeacon.BeaconID{UUID: ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001"), Major: 1, Minor: 2}
	idC = ibeacon.BeaconID{UUID: ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001"), Major: 1, Minor: 3}
)

func sample(room string, dists map[ibeacon.BeaconID]float64) Sample {
	return Sample{Room: room, Distances: dists}
}

func TestFeaturesOrderAndMissing(t *testing.T) {
	d := New([]ibeacon.BeaconID{idA, idB, idC})
	s := sample("kitchen", map[ibeacon.BeaconID]float64{idB: 3.5, idA: 1.2})
	f := d.Features(s)
	if len(f) != 3 {
		t.Fatalf("features = %v", f)
	}
	if f[0] != 1.2 || f[1] != 3.5 {
		t.Fatalf("order wrong: %v", f)
	}
	if f[2] != MissingDistance {
		t.Fatalf("missing beacon = %v, want %v", f[2], MissingDistance)
	}
}

func TestFeaturesIgnoresUnknownBeacons(t *testing.T) {
	d := New([]ibeacon.BeaconID{idA})
	s := sample("x", map[ibeacon.BeaconID]float64{idA: 2, idC: 9})
	f := d.Features(s)
	if len(f) != 1 || f[0] != 2 {
		t.Fatalf("features = %v", f)
	}
}

func TestMatrixAndLabels(t *testing.T) {
	d := New([]ibeacon.BeaconID{idA, idB})
	d.Add(sample("kitchen", map[ibeacon.BeaconID]float64{idA: 1}))
	d.Add(sample("living", map[ibeacon.BeaconID]float64{idB: 2}))
	d.Add(sample("kitchen", map[ibeacon.BeaconID]float64{idA: 1.5}))
	X, y := d.Matrix()
	if len(X) != 3 || len(y) != 3 {
		t.Fatalf("matrix = %d×, labels = %d", len(X), len(y))
	}
	if y[0] != "kitchen" || y[1] != "living" || y[2] != "kitchen" {
		t.Fatalf("labels = %v", y)
	}
}

func TestFromEstimates(t *testing.T) {
	es := []filter.Estimate{
		{Beacon: idA, Distance: 2.5},
		{Beacon: idB, Distance: 7.1},
	}
	s := FromEstimates("study", 42*time.Second, es)
	if s.Room != "study" || s.At != 42*time.Second {
		t.Fatalf("sample meta: %+v", s)
	}
	if s.Distances[idA] != 2.5 || s.Distances[idB] != 7.1 {
		t.Fatalf("distances: %v", s.Distances)
	}
}

// Property: features always have the dataset's dimensionality and only
// finite values.
func TestQuickFeatureShape(t *testing.T) {
	d := New([]ibeacon.BeaconID{idA, idB, idC})
	f := func(dA, dB float64, haveA, haveB bool) bool {
		dist := map[ibeacon.BeaconID]float64{}
		if haveA {
			dist[idA] = dA
		}
		if haveB {
			dist[idB] = dB
		}
		feats := d.Features(sample("r", dist))
		return len(feats) == 3 && feats[2] == MissingDistance
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package store

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
)

func populatedStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddFingerprint(fingerprint.Sample{
		Room: "kitchen",
		At:   3 * time.Second,
		Distances: map[ibeacon.BeaconID]float64{
			idA: 1.5,
			idB: 6.25,
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFingerprint(fingerprint.Sample{
		Room:      "living",
		At:        9 * time.Second,
		Distances: map[ibeacon.BeaconID]float64{idB: 2},
	}); err != nil {
		t.Fatal(err)
	}
	s.InstallModel([]byte(`{"fake":"model"}`), 0)
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig := populatedStore(t)
	var buf bytes.Buffer
	if err := orig.Cut().WriteTraining(&buf); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.FingerprintCount() != 2 {
		t.Fatalf("fingerprints = %d", fresh.FingerprintCount())
	}
	ds := fresh.FingerprintDataset()
	if len(ds.Beacons) != 2 {
		t.Fatalf("beacons = %v", ds.Beacons)
	}
	if ds.Samples[0].Room != "kitchen" || ds.Samples[0].Distances[idA] != 1.5 {
		t.Fatalf("sample 0 = %+v", ds.Samples[0])
	}
	if ds.Samples[0].At != 3*time.Second {
		t.Fatalf("sample 0 time = %v", ds.Samples[0].At)
	}
	model, version := fresh.Model()
	if string(model) != `{"fake":"model"}` || version != 1 {
		t.Fatalf("model = %q v%d", model, version)
	}
}

func TestSnapshotWithoutModel(t *testing.T) {
	s, _ := New(10)
	_ = s.AddFingerprint(fingerprint.Sample{
		Room:      "a",
		Distances: map[ibeacon.BeaconID]float64{idA: 2},
	})
	var buf bytes.Buffer
	if err := s.Cut().WriteTraining(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(10)
	if err := fresh.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if blob, v := fresh.Model(); blob != nil || v != 0 {
		t.Fatal("model should stay absent")
	}
}

func TestSnapshotRefusesMerge(t *testing.T) {
	orig := populatedStore(t)
	var buf bytes.Buffer
	if err := orig.Cut().WriteTraining(&buf); err != nil {
		t.Fatal(err)
	}
	target := populatedStore(t) // already has fingerprints
	if err := target.ReadSnapshot(&buf); err == nil {
		t.Fatal("restoring over existing fingerprints should fail")
	}
}

func TestSnapshotErrors(t *testing.T) {
	s, _ := New(10)
	if err := s.ReadSnapshot(strings.NewReader("{bad")); err == nil {
		t.Error("bad json should fail")
	}
	if err := s.ReadSnapshot(strings.NewReader(`{"beacons":["zzz"]}`)); err == nil {
		t.Error("bad beacon id should fail")
	}
	if err := s.ReadSnapshot(strings.NewReader(`{"fingerprints":[{"room":"a","distances":{"zzz":1}}]}`)); err == nil {
		t.Error("bad distance key should fail")
	}
}

func TestSnapshotPreservesTrainingAcrossRestart(t *testing.T) {
	// End-to-end restart story: snapshot, new store, dataset identical.
	orig := populatedStore(t)
	var buf bytes.Buffer
	if err := orig.Cut().WriteTraining(&buf); err != nil {
		t.Fatal(err)
	}
	restarted, _ := New(10)
	if err := restarted.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	a, _ := orig.FingerprintDataset().Matrix()
	b, _ := restarted.FingerprintDataset().Matrix()
	if len(a) != len(b) {
		t.Fatalf("rows: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("feature (%d,%d) differs: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

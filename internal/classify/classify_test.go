package classify

import (
	"math"
	"strings"
	"testing"

	"occusim/internal/building"
	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/raceflag"
	"occusim/internal/rng"
	"occusim/internal/svm"
	"occusim/internal/wire"
)

// houseIDs returns the paper house and its beacon identities.
func houseIDs() (*building.Building, []ibeacon.BeaconID) {
	h := building.PaperHouse()
	ids := make([]ibeacon.BeaconID, len(h.Beacons))
	for i, b := range h.Beacons {
		ids[i] = b.ID
	}
	return h, ids
}

// split partitions d into train and test after a seeded Fisher–Yates
// shuffle, keeping trainFrac of the samples for training.
func split(d *fingerprint.Dataset, trainFrac float64, seed uint64) (train, test *fingerprint.Dataset) {
	samples := append([]fingerprint.Sample(nil), d.Samples...)
	src := rng.New(seed)
	for i := len(samples) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		samples[i], samples[j] = samples[j], samples[i]
	}
	cut := int(float64(len(samples)) * trainFrac)
	train, test = fingerprint.New(d.Beacons), fingerprint.New(d.Beacons)
	for _, s := range samples[:cut] {
		train.Add(s)
	}
	for _, s := range samples[cut:] {
		test.Add(s)
	}
	return train, test
}

// syntheticDataset fabricates fingerprints where each room's beacon is
// near and all others far, with Gaussian jitter — an idealised version of
// what ranging produces.
func syntheticDataset(n int, noise float64, seed uint64) (*building.Building, *fingerprint.Dataset) {
	h, ids := houseIDs()
	src := rng.New(seed)
	d := fingerprint.New(ids)
	for i := 0; i < n; i++ {
		for bi, b := range h.Beacons {
			dist := map[ibeacon.BeaconID]float64{}
			for bj, other := range h.Beacons {
				base := 2.0
				if bj != bi {
					base = 4 + 2*math.Abs(float64(bj-bi))
				}
				v := base + src.Normal(0, noise)
				if v < 0.1 {
					v = 0.1
				}
				if v > fingerprint.MissingDistance {
					v = fingerprint.MissingDistance
				}
				dist[other.ID] = v
			}
			d.Add(fingerprint.Sample{Room: b.Room, Distances: dist})
		}
	}
	return h, d
}

func TestProximityPredictsNearestBeaconRoom(t *testing.T) {
	h, _ := houseIDs()
	p := NewProximity(h, 0)
	s := fingerprint.Sample{Distances: map[ibeacon.BeaconID]float64{
		h.Beacons[0].ID: 1.5, // kitchen
		h.Beacons[1].ID: 4.0, // living
	}}
	if got := p.Predict(s); got != "kitchen" {
		t.Fatalf("Predict = %q, want kitchen", got)
	}
}

func TestProximityOutsideWhenNothingHeard(t *testing.T) {
	h, _ := houseIDs()
	p := NewProximity(h, 0)
	if got := p.Predict(fingerprint.Sample{}); got != building.Outside {
		t.Fatalf("empty sample = %q, want outside", got)
	}
}

func TestProximityMaxDistanceCutoff(t *testing.T) {
	h, _ := houseIDs()
	p := NewProximity(h, 3)
	s := fingerprint.Sample{Distances: map[ibeacon.BeaconID]float64{
		h.Beacons[0].ID: 5, // too far
	}}
	if got := p.Predict(s); got != building.Outside {
		t.Fatalf("far sample = %q, want outside", got)
	}
}

func TestProximityIgnoresUnknownBeacons(t *testing.T) {
	h, _ := houseIDs()
	p := NewProximity(h, 0)
	alien := ibeacon.BeaconID{UUID: ibeacon.MustUUID("DEADBEEF-0000-4000-8000-000000000009")}
	s := fingerprint.Sample{Distances: map[ibeacon.BeaconID]float64{alien: 0.5}}
	if got := p.Predict(s); got != building.Outside {
		t.Fatalf("alien beacon = %q, want outside", got)
	}
}

func TestSceneSVMOnSyntheticFingerprints(t *testing.T) {
	_, data := syntheticDataset(30, 0.4, 1)
	train, test := split(data, 0.7, 2)
	c, err := TrainSceneSVM(train, svm.TrainConfig{C: 10, Kernel: svm.RBF{Gamma: 0.2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test.Samples {
		if c.Predict(s) == s.Room {
			correct++
		}
	}
	if acc := float64(correct) / float64(test.Len()); acc < 0.9 {
		t.Fatalf("scene SVM accuracy on clean synthetic = %v", acc)
	}
	if c.Model() == nil {
		t.Error("accessor failures")
	}
}

func TestSceneKNNOnSyntheticFingerprints(t *testing.T) {
	_, data := syntheticDataset(30, 0.4, 4)
	train, test := split(data, 0.7, 5)
	c, err := TrainSceneKNN(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test.Samples {
		if c.Predict(s) == s.Room {
			correct++
		}
	}
	if acc := float64(correct) / float64(test.Len()); acc < 0.9 {
		t.Fatalf("scene kNN accuracy = %v", acc)
	}
}

func TestTrainErrorsPropagate(t *testing.T) {
	empty := fingerprint.New(nil)
	if _, err := TrainSceneSVM(empty, svm.TrainConfig{C: 1}); err == nil {
		t.Error("empty dataset should fail SVM training")
	}
	if _, err := TrainSceneKNN(empty, 3); err == nil {
		t.Error("empty dataset should fail kNN training")
	}
}

func TestConfusionMatrixBasics(t *testing.T) {
	m := NewConfusionMatrix([]string{"a", "b", "outside"})
	pairs := [][2]string{
		{"a", "a"}, {"a", "a"}, {"a", "b"},
		{"b", "b"}, {"b", "outside"},
		{"outside", "a"}, {"outside", "outside"},
	}
	for _, p := range pairs {
		if err := m.Add(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if m.Total() != 7 {
		t.Fatalf("total = %d", m.Total())
	}
	if m.Correct() != 4 {
		t.Fatalf("correct = %d", m.Correct())
	}
	if acc := m.Accuracy(); math.Abs(acc-4.0/7) > 1e-12 {
		t.Fatalf("accuracy = %v", acc)
	}
	// FP: errors predicting a room: a→b and outside→a = 2.
	if fp := m.RoomFalsePositives("outside"); fp != 2 {
		t.Fatalf("FP = %d, want 2", fp)
	}
	// FN: errors whose truth is a room: a→b and b→outside = 2.
	if fn := m.RoomFalseNegatives("outside"); fn != 2 {
		t.Fatalf("FN = %d, want 2", fn)
	}
	if err := m.Add("ghost", "a"); err == nil {
		t.Error("unknown truth should fail")
	}
	if err := m.Add("a", "ghost"); err == nil {
		t.Error("unknown prediction should fail")
	}
	if !strings.Contains(m.Render(), "truth\\pred") {
		t.Error("render missing header")
	}
}

func TestEmptyMatrixAccuracy(t *testing.T) {
	m := NewConfusionMatrix([]string{"a"})
	if m.Accuracy() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	h, data := syntheticDataset(20, 0.4, 6)
	train, test := split(data, 0.7, 7)
	svmC, err := TrainSceneSVM(train, svm.TrainConfig{C: 10, Kernel: svm.RBF{Gamma: 0.2}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(svmC, test, h.ClassLabels(), building.Outside)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("evaluated accuracy = %v", res.Accuracy)
	}
	if res.Matrix.Total() != test.Len() {
		t.Fatalf("matrix total %d != test size %d", res.Matrix.Total(), test.Len())
	}
	// Errors (if any) must reconcile with FP/FN bookkeeping.
	errs := res.Matrix.Total() - res.Matrix.Correct()
	if res.FalsePositives > errs || res.FalseNegatives > errs {
		t.Fatalf("FP %d / FN %d exceed error count %d", res.FalsePositives, res.FalseNegatives, errs)
	}
}

func TestEvaluateUnknownLabelFails(t *testing.T) {
	h, _ := houseIDs()
	p := NewProximity(h, 0)
	d := fingerprint.New(nil)
	d.Add(fingerprint.Sample{Room: "atlantis"})
	if _, err := Evaluate(p, d, h.ClassLabels(), building.Outside); err == nil {
		t.Fatal("unknown truth label should fail evaluation")
	}
}

// proximityByMap is the proximity rule as it was written over a
// sample's map — the reference PredictSpan must agree with.
func proximityByMap(p *Proximity, dists map[ibeacon.BeaconID]float64) string {
	bestRoom, bestDist := building.Outside, p.MaxDistance
	if bestDist <= 0 {
		bestDist = fingerprint.MissingDistance
	}
	for id, d := range dists {
		if room, known := p.BeaconRoom[id]; known && d < bestDist {
			bestDist, bestRoom = d, room
		}
	}
	return bestRoom
}

// TestPredictSpanMatchesMapPrediction is the span entry point's
// contract: for every classifier, predicting from a report's beacon
// span — on one scratch shared by all of them and never reset — gives
// the room that building the sample's map and taking the map-keyed
// feature row (fingerprint.Dataset.Features) gave. The spans list model
// beacons in any order, leave some out, repeat some (the map keeps the
// last) and mix in beacons no model knows.
func TestPredictSpanMatchesMapPrediction(t *testing.T) {
	h, train := syntheticDataset(12, 0.8, 5)
	scene, err := TrainSceneSVM(train, svm.TrainConfig{C: 10, Kernel: svm.RBF{Gamma: 0.1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := TrainSceneKNN(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	prox, near := NewProximity(h, 0), NewProximity(h, 3)
	layout := fingerprint.Dataset{Beacons: train.Beacons}

	ids := append([]ibeacon.BeaconID(nil), train.Beacons...)
	for k := uint16(0); k < 3; k++ { // strangers: right UUID, unknown minor
		ids = append(ids, ibeacon.BeaconID{UUID: ids[0].UUID, Major: 9, Minor: 900 + k})
	}
	src := rng.New(77)
	var sc Scratch
	rooms := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		span := make([]wire.Beacon, src.Intn(2*len(ids)))
		dists := map[ibeacon.BeaconID]float64{}
		for i := range span {
			span[i] = wire.Beacon{ID: ids[src.Intn(len(ids))], Distance: 0.2 + 12*src.Float64(), RSSI: -60}
			dists[span[i].ID] = span[i].Distance
		}
		sample := fingerprint.Sample{Distances: dists}
		row := layout.Features(sample)
		for _, tc := range []struct {
			c    Classifier
			want string
		}{
			{scene, scene.model.PredictScratch(row, new(svm.Scratch))},
			{knn, knn.model.Predict(row)},
			{prox, proximityByMap(prox, dists)},
			{near, proximityByMap(near, dists)},
		} {
			if got := tc.c.PredictSpan(span, &sc); got != tc.want {
				t.Fatalf("trial %d, %T: PredictSpan(%v) = %q, the map gives %q", trial, tc.c, span, got, tc.want)
			}
			if got := tc.c.Predict(sample); got != tc.want {
				t.Fatalf("trial %d, %T: Predict = %q, the map gives %q", trial, tc.c, got, tc.want)
			}
		}
		rooms[scene.model.PredictScratch(row, new(svm.Scratch))]++
	}
	if len(rooms) < 3 {
		t.Fatalf("the trials reached only rooms %v: the property was barely exercised", rooms)
	}
}

// TestPredictSpanAllocatesNothing pins the point of the scratch: once
// it has grown to the model, a prediction allocates nothing.
func TestPredictSpanAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	h, train := syntheticDataset(8, 0.5, 3)
	scene, err := TrainSceneSVM(train, svm.TrainConfig{C: 10, Kernel: svm.RBF{Gamma: 0.1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	span := make([]wire.Beacon, len(h.Beacons))
	for i, b := range h.Beacons {
		span[i] = wire.Beacon{ID: b.ID, Distance: float64(2 + i)}
	}
	var sc Scratch
	for _, c := range []Classifier{scene, NewProximity(h, 0)} {
		c.PredictSpan(span, &sc)
		if n := testing.AllocsPerRun(100, func() { c.PredictSpan(span, &sc) }); n != 0 {
			t.Errorf("%T: PredictSpan allocates %v times per report, want 0", c, n)
		}
	}
	// The map adapter pays for fresh scratch (row, scaled row, votes) and
	// nothing else: a sample of ordinary size is rendered on the stack.
	sample := fingerprint.Sample{Distances: map[ibeacon.BeaconID]float64{}}
	for _, bc := range span {
		sample.Distances[bc.ID] = bc.Distance
	}
	if n := testing.AllocsPerRun(100, func() { scene.Predict(sample) }); n > 3 {
		t.Errorf("%T: Predict(Sample) allocates %v times, want ≤ 3", scene, n)
	}
}

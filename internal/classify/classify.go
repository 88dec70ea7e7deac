// Package classify hosts the indoor-occupancy classification algorithms
// of Section VI and their evaluation machinery.
//
// Two families from the paper are implemented:
//
//   - Proximity (the authors' earlier iOS work, 84% accuracy): the user
//     is placed in the room of the strongest/nearest transmitter.
//   - Scene analysis (this paper, ~94%): a supervised model over the
//     fingerprint feature vectors; the paper's SVM-RBF plus a k-NN
//     alternative.
//
// The evaluation side provides the confusion matrix of Figure 9.c with
// the paper's false-positive / false-negative reading (a false positive
// detects the user inside a room while they were outside it; a false
// negative detects them outside while they were inside).
package classify

import (
	"fmt"
	"strings"

	"occusim/internal/building"
	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/knn"
	"occusim/internal/svm"
	"occusim/internal/wire"
)

// Classifier predicts a room label from one report's ranged beacons.
type Classifier interface {
	// PredictSpan returns a room name or building.Outside for one
	// report's beacon span, in the order the device listed it. A beacon
	// listed twice counts once, with its last distance (what building a
	// map from the span would keep). sc is the caller's working memory:
	// an ingest loop keeps one and predicts without allocating.
	PredictSpan(span []wire.Beacon, sc *Scratch) string
	// Predict is PredictSpan for a sample held as a map.
	Predict(s fingerprint.Sample) string
}

// Scratch is the working memory of PredictSpan: the feature row and the
// model's scaled row and votes. The zero value is ready; it grows to the
// model's size on first use. Not safe for concurrent use.
type Scratch struct {
	row []float64
	svm svm.Scratch
}

// sampleSpanStack is how many beacons of a sample's map the Predict
// adapters render on their own stack; a larger sample spills to the heap.
const sampleSpanStack = 16

// sampleSpan renders a sample's distance map as a span appended to dst.
// Map order is arbitrary, which is harmless: a map holds each beacon
// once, and the predictions below depend on span order only through
// duplicates.
func sampleSpan(s fingerprint.Sample, dst []wire.Beacon) []wire.Beacon {
	for id, d := range s.Distances {
		dst = append(dst, wire.Beacon{ID: id, Distance: d})
	}
	return dst
}

// features fills sc.row with the fixed-width vector of
// fingerprint.Dataset.Features — the distance per model beacon,
// MissingDistance when the span does not list it, beacons outside the
// model ignored — straight from the span. The scan is columns × span
// (6 × 6 in the paper's house), cheaper at that size than hashing every
// identity into a map and exact where a beacon repeats on either side.
func features(beacons []ibeacon.BeaconID, span []wire.Beacon, sc *Scratch) []float64 {
	if cap(sc.row) < len(beacons) {
		sc.row = make([]float64, len(beacons))
	}
	row := sc.row[:len(beacons)]
	for i, id := range beacons {
		row[i] = fingerprint.MissingDistance
		for k := range span {
			if span[k].ID == id {
				row[i] = span[k].Distance
			}
		}
	}
	return row
}

// Proximity implements the proximity technique: the room of the nearest
// beacon wins; when no beacon is near enough (or none is heard) the user
// is outside.
type Proximity struct {
	// BeaconRoom maps each transmitter to its room.
	BeaconRoom map[ibeacon.BeaconID]string
	// MaxDistance marks the user as outside when the nearest beacon is
	// farther than this (metres). Zero means no cutoff.
	MaxDistance float64
}

// NewProximity builds the baseline from a building's beacon placement.
func NewProximity(b *building.Building, maxDistance float64) *Proximity {
	m := make(map[ibeacon.BeaconID]string, len(b.Beacons))
	for _, bc := range b.Beacons {
		m[bc.ID] = bc.Room
	}
	return &Proximity{BeaconRoom: m, MaxDistance: maxDistance}
}

// Predict implements Classifier.
func (p *Proximity) Predict(s fingerprint.Sample) string {
	var buf [sampleSpanStack]wire.Beacon
	return p.PredictSpan(sampleSpan(s, buf[:0]), nil)
}

// PredictSpan implements Classifier. Equally near beacons of different
// rooms resolve to the one listed first.
func (p *Proximity) PredictSpan(span []wire.Beacon, _ *Scratch) string {
	bestRoom := building.Outside
	bestDist := p.MaxDistance
	if bestDist <= 0 {
		bestDist = fingerprint.MissingDistance
	}
next:
	for i := range span {
		room, known := p.BeaconRoom[span[i].ID]
		if !known {
			continue
		}
		for k := i + 1; k < len(span); k++ {
			if span[k].ID == span[i].ID {
				continue next // listed again later: that distance counts
			}
		}
		if span[i].Distance < bestDist {
			bestDist = span[i].Distance
			bestRoom = room
		}
	}
	return bestRoom
}

// SceneSVM is the paper's scene-analysis classifier: an SVM over the
// fingerprint feature vectors.
type SceneSVM struct {
	beacons []ibeacon.BeaconID
	model   *svm.Model
}

// TrainSceneSVM fits the SVM on a fingerprint dataset.
func TrainSceneSVM(d *fingerprint.Dataset, cfg svm.TrainConfig) (*SceneSVM, error) {
	X, y := d.Matrix()
	m, err := svm.Train(X, y, cfg)
	if err != nil {
		return nil, fmt.Errorf("classify: scene SVM: %w", err)
	}
	return &SceneSVM{beacons: append([]ibeacon.BeaconID(nil), d.Beacons...), model: m}, nil
}

// NewSceneSVM wraps an already-trained model (e.g. one reloaded from the
// BMS store) with its feature layout.
func NewSceneSVM(beacons []ibeacon.BeaconID, model *svm.Model) *SceneSVM {
	return &SceneSVM{beacons: append([]ibeacon.BeaconID(nil), beacons...), model: model}
}

// Model exposes the underlying SVM (for serialisation).
func (s *SceneSVM) Model() *svm.Model { return s.model }

// Beacons returns the beacon feature order the model was trained with.
// A model snapshot distributed to another server must carry this order:
// the feature columns are positional, and a different first-seen order
// on the receiving side would silently scramble them.
func (s *SceneSVM) Beacons() []ibeacon.BeaconID {
	return append([]ibeacon.BeaconID(nil), s.beacons...)
}

// Predict implements Classifier.
func (s *SceneSVM) Predict(sample fingerprint.Sample) string {
	var sc Scratch
	var buf [sampleSpanStack]wire.Beacon
	return s.PredictSpan(sampleSpan(sample, buf[:0]), &sc)
}

// PredictSpan implements Classifier.
func (s *SceneSVM) PredictSpan(span []wire.Beacon, sc *Scratch) string {
	return s.model.PredictScratch(features(s.beacons, span, sc), &sc.svm)
}

// SceneKNN is the k-NN scene-analysis alternative.
type SceneKNN struct {
	beacons []ibeacon.BeaconID
	model   *knn.Classifier
}

// TrainSceneKNN fits k-NN on a fingerprint dataset.
func TrainSceneKNN(d *fingerprint.Dataset, k int) (*SceneKNN, error) {
	X, y := d.Matrix()
	m, err := knn.Train(X, y, k)
	if err != nil {
		return nil, fmt.Errorf("classify: scene kNN: %w", err)
	}
	return &SceneKNN{beacons: append([]ibeacon.BeaconID(nil), d.Beacons...), model: m}, nil
}

// Predict implements Classifier.
func (s *SceneKNN) Predict(sample fingerprint.Sample) string {
	var sc Scratch
	var buf [sampleSpanStack]wire.Beacon
	return s.PredictSpan(sampleSpan(sample, buf[:0]), &sc)
}

// PredictSpan implements Classifier.
func (s *SceneKNN) PredictSpan(span []wire.Beacon, sc *Scratch) string {
	return s.model.Predict(features(s.beacons, span, sc))
}

// ConfusionMatrix counts predictions against ground truth over a fixed
// label set.
type ConfusionMatrix struct {
	// Labels are the classes, in display order.
	Labels []string
	// Counts[i][j] is the number of samples with true label i predicted
	// as label j.
	Counts [][]int

	index map[string]int
}

// NewConfusionMatrix builds an empty matrix over the label set.
func NewConfusionMatrix(labels []string) *ConfusionMatrix {
	m := &ConfusionMatrix{
		Labels: append([]string(nil), labels...),
		index:  map[string]int{},
	}
	m.Counts = make([][]int, len(labels))
	for i, l := range labels {
		m.Counts[i] = make([]int, len(labels))
		m.index[l] = i
	}
	return m
}

// Add records one (truth, prediction) pair. Unknown labels error.
func (m *ConfusionMatrix) Add(truth, pred string) error {
	i, ok := m.index[truth]
	if !ok {
		return fmt.Errorf("classify: unknown truth label %q", truth)
	}
	j, ok := m.index[pred]
	if !ok {
		return fmt.Errorf("classify: unknown predicted label %q", pred)
	}
	m.Counts[i][j]++
	return nil
}

// Total returns the number of recorded pairs.
func (m *ConfusionMatrix) Total() int {
	n := 0
	for _, row := range m.Counts {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// Correct returns the number of diagonal entries.
func (m *ConfusionMatrix) Correct() int {
	n := 0
	for i := range m.Counts {
		n += m.Counts[i][i]
	}
	return n
}

// Accuracy returns Correct/Total (0 for an empty matrix).
func (m *ConfusionMatrix) Accuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.Correct()) / float64(t)
}

// RoomFalsePositives counts errors that place the user inside some room
// when the truth was elsewhere (predicted label is a room — i.e. not
// outsideLabel — and differs from the truth).
func (m *ConfusionMatrix) RoomFalsePositives(outsideLabel string) int {
	n := 0
	for i, row := range m.Counts {
		for j, c := range row {
			if i != j && m.Labels[j] != outsideLabel {
				n += c
			}
		}
	}
	return n
}

// RoomFalseNegatives counts errors that fail to place the user in the
// room they occupied (true label is a room and the prediction differs).
func (m *ConfusionMatrix) RoomFalseNegatives(outsideLabel string) int {
	n := 0
	for i, row := range m.Counts {
		if m.Labels[i] == outsideLabel {
			continue
		}
		for j, c := range row {
			if i != j {
				n += c
			}
		}
	}
	return n
}

// Render draws the matrix as an aligned ASCII table, truths in rows and
// predictions in columns.
func (m *ConfusionMatrix) Render() string {
	width := 10
	for _, l := range m.Labels {
		if len(l)+2 > width {
			width = len(l) + 2
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s", width, "truth\\pred")
	for _, l := range m.Labels {
		fmt.Fprintf(&b, "%*s", width, l)
	}
	b.WriteByte('\n')
	for i, l := range m.Labels {
		fmt.Fprintf(&b, "%*s", width, l)
		for j := range m.Labels {
			fmt.Fprintf(&b, "%*d", width, m.Counts[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Result is the outcome of evaluating a classifier on a labelled set.
type Result struct {
	Accuracy float64
	Matrix   *ConfusionMatrix
	// FalsePositives/FalseNegatives use the paper's room-level reading
	// (see RoomFalsePositives / RoomFalseNegatives).
	FalsePositives int
	FalseNegatives int
}

// Evaluate runs the classifier over every sample of the test set and
// scores it against the ground-truth labels. labels fixes the confusion
// matrix axes; samples whose truth or prediction is missing from labels
// are an error.
func Evaluate(c Classifier, test *fingerprint.Dataset, labels []string, outsideLabel string) (Result, error) {
	m := NewConfusionMatrix(labels)
	for _, s := range test.Samples {
		pred := c.Predict(s)
		if err := m.Add(s.Room, pred); err != nil {
			return Result{}, err
		}
	}
	return Result{
		Accuracy:       m.Accuracy(),
		Matrix:         m,
		FalsePositives: m.RoomFalsePositives(outsideLabel),
		FalseNegatives: m.RoomFalseNegatives(outsideLabel),
	}, nil
}

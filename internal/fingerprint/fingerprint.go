// Package fingerprint implements the scene-analysis dataset of Section
// VI: labelled samples of per-beacon estimated distances, collected by an
// operator walking the building ("a data collection phase is needed,
// requiring an operator that walks around the building collecting samples
// (beacon identifiers and their detected distances)"), stored on the
// server, and used to train the supervised room classifier.
//
// A Sample maps beacon identities to estimated distances; a Dataset fixes
// a beacon ordering so samples become fixed-width feature vectors with a
// sentinel distance for beacons that were not heard.
package fingerprint

import (
	"time"

	"occusim/internal/filter"
	"occusim/internal/ibeacon"
)

// MissingDistance is the feature value used for beacons absent from a
// sample. It matches the ranging clamp of the distance estimators: "not
// heard" and "at the edge of radio range" are deliberately adjacent in
// feature space.
const MissingDistance = 20.0

// Sample is one labelled observation.
type Sample struct {
	// Room is the ground-truth label (a room name or building.Outside).
	Room string `json:"room"`
	// At is the collection time within its trace.
	At time.Duration `json:"at"`
	// Distances holds the filtered distance estimate per heard beacon.
	Distances map[ibeacon.BeaconID]float64 `json:"-"`
}

// FromEstimates builds a sample from the ranging filter's current
// estimates.
func FromEstimates(room string, at time.Duration, estimates []filter.Estimate) Sample {
	s := Sample{Room: room, At: at, Distances: make(map[ibeacon.BeaconID]float64, len(estimates))}
	for _, e := range estimates {
		s.Distances[e.Beacon] = e.Distance
	}
	return s
}

// Dataset is an ordered collection of samples with a fixed beacon list
// defining the feature layout.
type Dataset struct {
	// Beacons fixes the feature order. Features(s)[i] is the distance to
	// Beacons[i].
	Beacons []ibeacon.BeaconID
	// Samples are the labelled observations.
	Samples []Sample
}

// New creates a dataset over the given beacon list. The order is
// preserved and defines the feature layout.
func New(beacons []ibeacon.BeaconID) *Dataset {
	return &Dataset{Beacons: append([]ibeacon.BeaconID(nil), beacons...)}
}

// Add appends a sample.
func (d *Dataset) Add(s Sample) { d.Samples = append(d.Samples, s) }

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// Features converts a sample to the fixed-width vector: the distance per
// known beacon, MissingDistance when the beacon was not heard. Beacons in
// the sample but not in the dataset's list are ignored.
func (d *Dataset) Features(s Sample) []float64 {
	out := make([]float64, len(d.Beacons))
	for i, id := range d.Beacons {
		if v, ok := s.Distances[id]; ok {
			out[i] = v
		} else {
			out[i] = MissingDistance
		}
	}
	return out
}

// Matrix returns the feature matrix and label vector of the whole
// dataset.
func (d *Dataset) Matrix() ([][]float64, []string) {
	X := make([][]float64, len(d.Samples))
	y := make([]string, len(d.Samples))
	for i, s := range d.Samples {
		X[i] = d.Features(s)
		y[i] = s.Room
	}
	return X, y
}

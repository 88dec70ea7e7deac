package store

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
)

// snapshotJSON is the persisted form of a Store: the training assets
// (fingerprints, beacon order, model) that a BMS must survive a restart
// with. Observations are ephemeral telemetry and are not persisted.
type snapshotJSON struct {
	Beacons      []string        `json:"beacons"`
	Fingerprints []fpJSON        `json:"fingerprints"`
	Model        json.RawMessage `json:"model,omitempty"`
	ModelVersion int             `json:"modelVersion,omitempty"`
}

type fpJSON struct {
	Room      string             `json:"room"`
	AtSeconds float64            `json:"atSeconds"`
	Distances map[string]float64 `json:"distances"`
}

// trainingCut is the training state at one instant, as views: the
// fingerprint list and the beacon order only ever grow by append, and a
// model blob is replaced by a fresh copy, never rewritten, so the
// captured slices stay valid and unchanging without s.mu.
type trainingCut struct {
	beacons      []ibeacon.BeaconID
	fingerprints []fingerprint.Sample
	model        []byte
	modelVersion int
}

func (s *Store) cutTraining() trainingCut {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return trainingCut{beacons: s.beaconOrder, fingerprints: s.fingerprints, model: s.model, modelVersion: s.modelVersion}
}

func (t trainingCut) write(w io.Writer) error {
	snap := snapshotJSON{ModelVersion: t.modelVersion}
	for _, id := range t.beacons {
		snap.Beacons = append(snap.Beacons, id.String())
	}
	for _, sample := range t.fingerprints {
		fj := fpJSON{
			Room:      sample.Room,
			AtSeconds: sample.At.Seconds(),
			Distances: map[string]float64{},
		}
		for id, d := range sample.Distances {
			fj.Distances[id.String()] = d
		}
		snap.Fingerprints = append(snap.Fingerprints, fj)
	}
	if t.model != nil {
		snap.Model = json.RawMessage(t.model)
	}
	return json.NewEncoder(w).Encode(snap)
}

// ReadSnapshot restores training state written by Cut.WriteTraining
// into a fresh store. Restoring over existing fingerprints is rejected
// to avoid silently merging two histories.
func (s *Store) ReadSnapshot(r io.Reader) error {
	var snap snapshotJSON
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("store: snapshot decode: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fingerprints) > 0 {
		return fmt.Errorf("store: refusing to restore snapshot over %d existing fingerprints", len(s.fingerprints))
	}
	for _, raw := range snap.Beacons {
		id, err := ibeacon.ParseBeaconID(raw)
		if err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
		s.noteBeacon(id)
	}
	for _, fj := range snap.Fingerprints {
		sample := fingerprint.Sample{
			Room:      fj.Room,
			At:        time.Duration(fj.AtSeconds * float64(time.Second)),
			Distances: map[ibeacon.BeaconID]float64{},
		}
		for raw, d := range fj.Distances {
			id, err := ibeacon.ParseBeaconID(raw)
			if err != nil {
				return fmt.Errorf("store: snapshot: %w", err)
			}
			sample.Distances[id] = d
			s.noteBeacon(id)
		}
		s.fingerprints = append(s.fingerprints, sample)
	}
	if snap.Model != nil {
		s.model = append([]byte(nil), snap.Model...)
		s.modelVersion = snap.ModelVersion
		if s.modelVersion == 0 {
			s.modelVersion = 1
		}
	}
	return nil
}

package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// Reference builds the oracle's clean single server: trained with the
// same seed and survey schedule as the fleet's shards (so it holds the
// identical model) and fed the honest streams exactly once.
func Reference(b *building.Building, honest [][]transport.Report, seed uint64) (*bms.Server, error) {
	st, err := store.New(retain)
	if err != nil {
		return nil, err
	}
	ref, err := bms.NewServer(b, st, debounce)
	if err != nil {
		return nil, err
	}
	if classifies(b) {
		if err := experiments.TrainCrowdModel(ref, b, seed); err != nil {
			return nil, err
		}
	}
	for _, stream := range honest {
		if len(stream) == 0 {
			continue
		}
		if _, err := ref.IngestBatch(stream); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// Verify replays the honest streams once into a clean Reference and
// holds gw's federated views to it as mode demands. It ends every
// scenario run and every loadgen drill.
func (f *Fleet) Verify(gw *fleet.Gateway, mode OracleMode, honest [][]transport.Report) error {
	if f.Spec.Wrap != nil && f.Injected() == 0 {
		return fmt.Errorf("vacuous: no delivery went through the shard doubles")
	}
	ref, err := Reference(f.Building, honest, f.seed)
	if err != nil {
		return err
	}
	switch mode {
	case Exact:
		return VerifyExact(gw, ref)
	case ExactAfterSweep:
		if f.Spec.Fleet.ResidueTTL <= 0 {
			return fmt.Errorf("oracle exact-after-sweep needs a ResidueTTL in the spec's fleet config")
		}
		// The same cutoff the gateway's sweep derives: the newest routed
		// report minus the TTL. The honest streams carry identical times
		// (sweep scenarios do not skew), so the float arithmetic matches
		// bit for bit.
		maxAt := 0.0
		for _, stream := range honest {
			for i := range stream {
				if stream[i].AtSeconds > maxAt {
					maxAt = stream[i].AtSeconds
				}
			}
		}
		cutoff := time.Duration(maxAt*float64(time.Second)) - f.Spec.Fleet.ResidueTTL
		swept, err := ref.ExpireBefore(0, cutoff)
		if err != nil {
			return err
		}
		if len(swept) == 0 {
			return fmt.Errorf("oracle exact-after-sweep swept nothing from the reference — the scenario is vacuous")
		}
		// The gateway runs its own sweep on the first federated read
		// inside VerifyExact.
		return VerifyExact(gw, ref)
	case Explained:
		return verifyExplained(gw, ref)
	default:
		return fmt.Errorf("unknown oracle mode %v", mode)
	}
}

// VerifyExact requires the fleet's federated occupancy, events, dwell
// and rollup to be byte-identical JSON to the reference server's, with
// every device accounted for. This is the exactly-once contract made
// an executable assertion; cmd/loadgen's ground-truth check is this
// function. The rollup is rendered from per-room tallies the shards
// keep, not from the events compared above, so it is checked on its
// own: against the reference's own summary read, after whatever
// eviction, install and expiry the run put the shards through.
func VerifyExact(gw *fleet.Gateway, ref *bms.Server) error {
	occ, err := gw.Occupancy()
	if err != nil {
		return err
	}
	// Counts compare against the clean reference, not the raw crowd
	// size: a run too short for the debounce to commit legitimately
	// tracks fewer devices on BOTH sides, and that is not an
	// exactly-once failure.
	refOcc := ref.Occupancy()
	if len(occ.Devices) != len(refOcc.Devices) {
		return fmt.Errorf("ground truth: fleet tracks %d devices, clean reference tracks %d", len(occ.Devices), len(refOcc.Devices))
	}
	heads, refHeads := 0, 0
	for _, n := range occ.Rooms {
		heads += n
	}
	for _, n := range refOcc.Rooms {
		refHeads += n
	}
	if heads != refHeads {
		return fmt.Errorf("ground truth: head count %d across rooms, clean reference has %d", heads, refHeads)
	}
	if err := compareJSON("occupancy", occ, refOcc); err != nil {
		return err
	}
	events, err := gw.Events()
	if err != nil {
		return err
	}
	if err := compareJSON("events", events, ref.Events()); err != nil {
		return err
	}
	dwell, err := gw.DwellTotals()
	if err != nil {
		return err
	}
	if err := compareJSON("dwell", dwell, ref.DwellTotals()); err != nil {
		return err
	}
	rollup, err := gw.Rollup()
	if err != nil {
		return err
	}
	return compareJSON("rollup", rollup, bms.RenderRollup(ref.Summary()))
}

// verifyExplained is the set-based oracle for timeline-rewriting
// scenarios (clock skew): placements, head counts, per-device event
// shapes and dwell totals must match; absolute event times are
// excluded, because re-anchoring a lying clock into the building frame
// necessarily moves them.
func verifyExplained(gw *fleet.Gateway, ref *bms.Server) error {
	occ, err := gw.Occupancy()
	if err != nil {
		return err
	}
	refOcc := ref.Occupancy()
	if err := compareJSON("device placements", occ.Devices, refOcc.Devices); err != nil {
		return err
	}
	if err := compareJSON("room head counts", occ.Rooms, refOcc.Rooms); err != nil {
		return err
	}
	events, err := gw.Events()
	if err != nil {
		return err
	}
	if err := compareJSON("per-device event sequences", eventShapes(events), eventShapes(ref.Events())); err != nil {
		return err
	}
	// Dwell is per-device time deltas, which a constant clock offset
	// cancels out of — totals must survive re-anchoring exactly.
	dwell, err := gw.DwellTotals()
	if err != nil {
		return err
	}
	return compareJSON("dwell", dwell, ref.DwellTotals())
}

// eventShapes reduces an event log to each device's ordered (kind,
// room) sequence — the time-free shape of its history.
func eventShapes(events []occupancy.Event) map[string][]string {
	shapes := map[string][]string{}
	for _, e := range events {
		shapes[e.Device] = append(shapes[e.Device], fmt.Sprintf("%v:%s", e.Kind, e.Room))
	}
	return shapes
}

// compareJSON byte-compares two views in canonical JSON form.
func compareJSON(what string, got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("ground truth: %s diverged:\nfleet: %s\nclean: %s", what, g, w)
	}
	return nil
}

package experiments

import (
	"fmt"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/core"
	"occusim/internal/fingerprint"
	"occusim/internal/fleet"
	"occusim/internal/geom"
	"occusim/internal/ibeacon"
	"occusim/internal/mobility"
	"occusim/internal/rng"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// CrowdReportPeriod and crowdRoomDwell shape each device's stream: one
// report per scan period, moving rooms once a minute.
const (
	CrowdReportPeriod = 2 * time.Second
	crowdRoomDwell    = time.Minute
)

// TrainCrowdModel collects jittered survey fingerprints on the server
// and fits the scene-analysis SVM — the shared training phase of the
// crowd workloads (internal/scenario, cmd/loadgen). Distances
// come from survey points with deterministic jitter standing in for the
// radio pipeline.
func TrainCrowdModel(server *bms.Server, b *building.Building, seed uint64) error {
	src := rng.New(seed)
	for _, room := range b.Rooms {
		for k := 0; k < 8; k++ {
			p := surveyPoint(room.Bounds, k)
			sample := fingerprint.Sample{Room: room.Name, Distances: map[ibeacon.BeaconID]float64{}}
			for _, bc := range b.Beacons {
				sample.Distances[bc.ID] = clampDistance(p.Dist(bc.Pos) + src.Normal(0, 0.4))
			}
			if err := server.AddFingerprint(sample); err != nil {
				return err
			}
		}
	}
	_, err := server.Train(10, 0.03, seed)
	return err
}

// SynthCrowdStreams synthesises reportsPer mobility-driven reports for
// each of devices handsets: every crowdRoomDwell the device jumps to a
// random room and reports jittered beacon distances from a random
// position there each CrowdReportPeriod. Device d's stream is a pure
// function of (seed, d) — rng.Split is position-independent — so crowd
// workloads of different sizes share stream prefixes. Returns the
// per-device streams, device names, and each device's final scheduled
// room (the placement ground truth).
func SynthCrowdStreams(b *building.Building, devices, reportsPer int, seed uint64) (streams [][]transport.Report, names, finalRoom []string) {
	src := rng.New(seed)
	streams = make([][]transport.Report, devices)
	finalRoom = make([]string, devices)
	names = make([]string, devices)
	for d := 0; d < devices; d++ {
		dsrc := src.Split(uint64(1000 + d))
		names[d] = fmt.Sprintf("crowd-%03d", d)
		streams[d] = make([]transport.Report, 0, reportsPer)
		var room building.Room
		var pos geom.Point
		for i := 0; i < reportsPer; i++ {
			at := time.Duration(i) * CrowdReportPeriod
			if i%int(crowdRoomDwell/CrowdReportPeriod) == 0 {
				room = b.Rooms[dsrc.Intn(len(b.Rooms))]
				pos = geom.Pt(
					dsrc.Uniform(room.Bounds.Min.X+0.3, room.Bounds.Max.X-0.3),
					dsrc.Uniform(room.Bounds.Min.Y+0.3, room.Bounds.Max.Y-0.3),
				)
				finalRoom[d] = room.Name
			}
			rep := transport.Report{Device: names[d], AtSeconds: at.Seconds()}
			for _, bc := range b.Beacons {
				dist := clampDistance(pos.Dist(bc.Pos) + dsrc.Normal(0, 0.6))
				rep.Beacons = append(rep.Beacons, transport.BeaconReport{
					ID: bc.ID.String(), Distance: dist, RSSI: -60 - 2*dist,
				})
			}
			streams[d] = append(streams[d], rep)
		}
	}
	return streams, names, finalRoom
}

// PhoneCrowdStreams runs the paper's pipeline for phones handsets — BLE
// world → radio → scanner → history filter → app, internal/core's — each
// walking a mobility.NewTour over the plan's rooms for cycles scan periods
// of CrowdReportPeriod, and returns the reports each app sent, one stream
// per device. Unlike SynthCrowdStreams', a report names only the beacons
// its phone ranged that cycle, and a phone outside the region sends none.
func PhoneCrowdStreams(b *building.Building, phones, cycles int, seed uint64) ([][]transport.Report, error) {
	scn, err := core.NewScenario(core.ScenarioConfig{Building: b, Seed: seed})
	if err != nil {
		return nil, err
	}
	duration := time.Duration(cycles) * CrowdReportPeriod
	areas := make([]geom.Rect, 0, len(b.Rooms))
	for _, r := range b.Rooms {
		areas = append(areas, r.Bounds)
	}
	src := rng.New(seed)
	streams := make([][]transport.Report, phones)
	for i := range streams {
		tour, err := mobility.NewTour(areas, mobility.DefaultWalk(), duration, src.Split(uint64(i)))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("phone-%03d", i)
		capture := transport.SendFunc{Label: name, F: func(r transport.Report) error {
			streams[i] = append(streams[i], r)
			return nil
		}}
		if _, err := scn.AddPhone(name, tour, core.PhoneConfig{ScanPeriod: CrowdReportPeriod, Uplink: capture}); err != nil {
			return nil, err
		}
	}
	scn.Run(duration)
	return streams, nil
}

// TrainAndDistribute fits the crowd scene model on a scratch trainer
// and pushes the snapshot through the gateway to every shard — the
// deployment step of every crowd fleet (internal/scenario's Build).
func TrainAndDistribute(gw *fleet.Gateway, b *building.Building, seed uint64) error {
	tst, err := store.New(1000)
	if err != nil {
		return err
	}
	trainer, err := bms.NewServer(b, tst, 2)
	if err != nil {
		return err
	}
	if err := TrainCrowdModel(trainer, b, seed); err != nil {
		return err
	}
	snap, ok := trainer.ModelSnapshot()
	if !ok {
		return fmt.Errorf("experiments: trainer produced no model snapshot")
	}
	return gw.DistributeModel(snap)
}

// surveyPoint spreads k over the room on the shared survey grid.
func surveyPoint(r geom.Rect, k int) geom.Point {
	f := surveyGrid[k%len(surveyGrid)]
	return geom.Pt(r.Min.X+f[0]*r.Width(), r.Min.Y+f[1]*r.Height())
}

var surveyGrid = [9][2]float64{
	{0.5, 0.5}, {0.25, 0.25}, {0.75, 0.25}, {0.25, 0.75}, {0.75, 0.75},
	{0.5, 0.25}, {0.5, 0.75}, {0.25, 0.5}, {0.75, 0.5},
}

// clampDistance keeps synthetic distances inside the estimator's range.
func clampDistance(d float64) float64 {
	if d < 0.1 {
		return 0.1
	}
	if d > 20 {
		return 20
	}
	return d
}

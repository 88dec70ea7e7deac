package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/classify"
	"occusim/internal/experiments"
	"occusim/internal/fingerprint"
	"occusim/internal/fleet"
	"occusim/internal/ibeacon"
	"occusim/internal/occupancy"
	"occusim/internal/ring"
	"occusim/internal/store"
	"occusim/internal/svm"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// The layer ladder times the public functions of each layer, one
// goroutine, on the workload's own batches: what a report costs in each
// layer with nothing else running. It is the waterfall's "marginal
// ns/report per layer" built without editing the program.

const (
	ladderDevices = 64 // one lap of 64 devices: 9,600 reports per step
	ladderReps    = 3  // each step's reading is the median of this many
	ladderSyncs   = 200
	// smallLadderDevices sizes the smoke test's ladder (one repetition).
	smallLadderDevices = 8
)

// ladderInput is one lap of the workload's batches in every form the
// steps consume, built once outside any timing.
type ladderInput struct {
	reports  int
	batches  [][]transport.Report
	frames   [][]byte // one wire frame per batch
	presplit [][]byte // one pre-split upload body per batch
	sections [][]fleet.PresplitSection
	obs      [][]store.Observation
	samples  []fingerprint.Sample
	track    [][]occupancy.Classification
}

// ladderBatches cuts one lap into the workload's batch shape: a device's
// 11 consecutive reports, or — for the relay — 64 devices' reports of
// one instant. Sequence numbers are stamped as an uplink would.
func ladderBatches(w workload, streams [][]transport.Report) [][]transport.Report {
	var out [][]transport.Report
	if w.relay {
		for i := 0; i < reportsPerLap; i++ {
			batch := make([]transport.Report, 0, len(streams))
			for d := range streams {
				r := streams[d][i]
				r.Epoch, r.Seq = 1, uint64(i+1)
				batch = append(batch, r)
			}
			out = append(out, batch)
		}
		return out
	}
	for d := range streams {
		for i := 0; i < reportsPerLap; i += batchReports {
			end := min(i+batchReports, reportsPerLap)
			batch := append([]transport.Report(nil), streams[d][i:end]...)
			for k := range batch {
				batch[k].Epoch, batch[k].Seq = 1, uint64(i+k+1)
			}
			out = append(out, batch)
		}
	}
	return out
}

func newLadderInput(w workload, b *building.Building, devices int, seed uint64, scene *classify.SceneSVM, rg *ring.Ring) (*ladderInput, error) {
	streams, _, _ := experiments.SynthCrowdStreams(b, devices, reportsPerLap, seed)
	in := &ladderInput{batches: ladderBatches(w, streams)}
	names := rg.Names()
	for _, batch := range in.batches {
		in.reports += len(batch)
		frame, err := encodeFrame(nil, batch)
		if err != nil {
			return nil, err
		}
		in.frames = append(in.frames, frame)

		// The device-side split, as transport.ShardSplitter performs it.
		per := map[int][]transport.Report{}
		var order []int
		for _, r := range batch {
			owner, err := rg.Owner(r.Device, nil)
			if err != nil {
				return nil, err
			}
			if _, seen := per[owner]; !seen {
				order = append(order, owner)
			}
			per[owner] = append(per[owner], r)
		}
		var body []byte
		var secs []fleet.PresplitSection
		for _, owner := range order {
			body = wire.AppendSection(body, names[owner])
			if body, err = encodeFrame(body, per[owner]); err != nil {
				return nil, err
			}
		}
		err = wire.ScanSections(body, func(shard, frame, payload []byte) error {
			secs = append(secs, fleet.PresplitSection{Shard: string(shard), Frame: frame, Payload: payload})
			return nil
		})
		if err != nil {
			return nil, err
		}
		in.presplit = append(in.presplit, body)
		in.sections = append(in.sections, secs)

		obs := make([]store.Observation, len(batch))
		track := make([]occupancy.Classification, len(batch))
		for i, r := range batch {
			at := time.Duration(r.AtSeconds * float64(time.Second))
			o := store.Observation{Device: r.Device, At: at, Epoch: r.Epoch, Seq: r.Seq}
			dists := make(map[ibeacon.BeaconID]float64, len(r.Beacons))
			for _, br := range r.Beacons {
				id, err := ibeacon.ParseBeaconID(br.ID)
				if err != nil {
					return nil, err
				}
				o.Beacons = append(o.Beacons, store.BeaconDistance{ID: id, Distance: br.Distance, RSSI: br.RSSI})
				dists[id] = br.Distance
			}
			sample := fingerprint.Sample{At: at, Distances: dists}
			obs[i] = o
			in.samples = append(in.samples, sample)
			track[i] = occupancy.Classification{At: at, Device: r.Device, Room: scene.Predict(sample)}
		}
		in.obs = append(in.obs, obs)
		in.track = append(in.track, track)
	}
	return in, nil
}

// sceneFrom rebuilds the classifier a shard runs from its distributable
// snapshot, as bms.InstallModel does.
func sceneFrom(snap bms.ModelSnapshot) (*classify.SceneSVM, error) {
	beacons := make([]ibeacon.BeaconID, 0, len(snap.Beacons))
	for _, raw := range snap.Beacons {
		id, err := ibeacon.ParseBeaconID(raw)
		if err != nil {
			return nil, err
		}
		beacons = append(beacons, id)
	}
	model := new(svm.Model)
	if err := json.Unmarshal(snap.Model, model); err != nil {
		return nil, err
	}
	return classify.NewSceneSVM(beacons, model), nil
}

// ladderStep is one rung: prep builds fresh state outside the timing
// and returns the timed body.
type ladderStep struct {
	name string
	prep func() (body func() error, err error)
}

// timeStep runs one step reps times and returns the median ns and
// allocations per report.
func timeStep(s ladderStep, reports, reps int) (ns, allocs float64, err error) {
	var nss, als []float64
	for rep := 0; rep < reps; rep++ {
		body, err := s.prep()
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		if err := body(); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		d := time.Since(t)
		runtime.ReadMemStats(&after)
		nss = append(nss, float64(d)/float64(reports))
		als = append(als, float64(after.Mallocs-before.Mallocs)/float64(reports))
	}
	sort.Float64s(nss)
	sort.Float64s(als)
	return nss[len(nss)/2], als[len(als)/2], nil
}

// runLadder measures every rung on the plan's workload shape.
func runLadder(p plan) (map[string]value, error) {
	b := building.PaperHouse()
	snap, err := modelFor(b, p.seed)
	if err != nil {
		return nil, err
	}
	scene, err := sceneFrom(snap)
	if err != nil {
		return nil, err
	}
	const ladderShards = 4
	newFleet := func() (*fleet.Gateway, error) {
		pool, err := fleet.NewLocalPool(b, ladderShards, debounce, retainPerDev)
		if err != nil {
			return nil, err
		}
		gw, err := fleet.New(pool.Shards, fleet.Config{})
		if err != nil {
			return nil, err
		}
		return gw, gw.DistributeModel(snap)
	}
	gw0, err := newFleet()
	if err != nil {
		return nil, err
	}
	info := gw0.RingInfo()
	rg, err := ring.New(info.Shards, info.Replicas)
	if err != nil {
		return nil, err
	}
	devices, reps := ladderDevices, ladderReps
	if p.small() {
		devices, reps = smallLadderDevices, 1
	}
	in, err := newLadderInput(p.w, b, devices, p.seed, scene, rg)
	if err != nil {
		return nil, err
	}
	newServer := func() (*bms.Server, error) {
		srv, err := openServer(b, "", 0, 0)
		if err != nil {
			return nil, err
		}
		_, err = srv.InstallModel(snap)
		return srv, err
	}
	dir, err := os.MkdirTemp(p.tmpRoot, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walDir := func() (string, error) { return os.MkdirTemp(dir, "wal-") }
	appendAll := func(w *store.WAL, frames [][]byte) error {
		for i, frame := range frames {
			end := w.Begin()
			err := w.Append(store.StripeFor(in.batches[i][0].Device), frame)
			end()
			if err != nil {
				return err
			}
		}
		return nil
	}
	post := func(h http.Handler, body []byte, digest string) error {
		req := httptest.NewRequest(http.MethodPost, pathBatch, bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentType)
		if digest != "" {
			req.Header.Set(wire.HeaderRingDigest, digest)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}

	steps := []ladderStep{
		{"wire.encode", func() (func() error, error) {
			var buf []byte
			return func() error {
				for _, batch := range in.batches {
					var err error
					if buf, err = encodeFrame(buf[:0], batch); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}},
		{"wire.decode", func() (func() error, error) {
			wb := new(wire.Batch)
			return func() error {
				for _, frame := range in.frames {
					if err := wire.DecodeFrame(frame, wb); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}},
		{"wire.scan", func() (func() error, error) {
			return func() error {
				for _, secs := range in.sections {
					for _, sec := range secs {
						if _, err := wire.ScanReports(sec.Payload, func([]byte, float64, uint64, uint64) error { return nil }); err != nil {
							return err
						}
					}
				}
				return nil
			}, nil
		}},
		{"classify.predict", func() (func() error, error) {
			return func() error {
				for _, s := range in.samples {
					if scene.Predict(s) == "" {
						return fmt.Errorf("empty prediction")
					}
				}
				return nil
			}, nil
		}},
		{"store.add", func() (func() error, error) {
			st, err := store.New(retainPerDev)
			return func() error {
				for _, obs := range in.obs {
					if _, err := st.AddObservationBatch(obs); err != nil {
						return err
					}
				}
				return nil
			}, err
		}},
		{"store.wal_append", func() (func() error, error) {
			d, err := walDir()
			if err != nil {
				return nil, err
			}
			w, err := store.OpenWAL(d, store.ObsStripes, store.FsyncOff, 0)
			return func() error {
				if err := appendAll(w, in.frames); err != nil {
					return err
				}
				return w.Close()
			}, err
		}},
		{"store.wal_replay", func() (func() error, error) {
			d, err := walDir()
			if err != nil {
				return nil, err
			}
			w, err := store.OpenWAL(d, store.ObsStripes, store.FsyncOff, 0)
			if err != nil {
				return nil, err
			}
			if err := appendAll(w, in.frames); err != nil {
				return nil, err
			}
			if err := w.Close(); err != nil {
				return nil, err
			}
			return func() error {
				w, err := store.OpenWAL(d, store.ObsStripes, store.FsyncOff, 0)
				if err != nil {
					return err
				}
				n := 0
				count := func([]byte) error { n++; return nil }
				if err := w.Replay(count, func(_ int, p []byte) error { return count(p) }); err != nil {
					return err
				}
				if n != len(in.frames) {
					return fmt.Errorf("replayed %d of %d frames", n, len(in.frames))
				}
				return w.Close()
			}, nil
		}},
		{"occupancy.observe", func() (func() error, error) {
			tr, err := occupancy.NewSharded(debounce)
			return func() error {
				for _, batch := range in.track {
					tr.ObserveBatch(batch)
				}
				return nil
			}, err
		}},
		{"bms.ingest_wire", func() (func() error, error) {
			srv, err := newServer()
			wb := new(wire.Batch)
			return func() error {
				for _, frame := range in.frames {
					if err := wire.DecodeFrame(frame, wb); err != nil {
						return err
					}
					if _, err := srv.IngestWireBatch(wb); err != nil {
						return err
					}
				}
				return nil
			}, err
		}},
		{"bms.ingest_json", func() (func() error, error) {
			srv, err := newServer()
			return func() error {
				for _, batch := range in.batches {
					if _, err := srv.IngestBatch(batch); err != nil {
						return err
					}
				}
				return nil
			}, err
		}},
		{"bms.handler", func() (func() error, error) {
			srv, err := newServer()
			if err != nil {
				return nil, err
			}
			h := srv.Handler()
			return func() error {
				for _, frame := range in.frames {
					if err := post(h, frame, ""); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}},
		{"fleet.presplit", func() (func() error, error) {
			gw, err := newFleet()
			if err != nil {
				return nil, err
			}
			digest := gw.RingDigest()
			return func() error {
				for _, secs := range in.sections {
					if _, err := gw.IngestPresplit(digest, secs); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}},
		{"fleet.batch", func() (func() error, error) {
			gw, err := newFleet()
			return func() error {
				for _, batch := range in.batches {
					if _, err := gw.IngestBatch(batch); err != nil {
						return err
					}
				}
				return nil
			}, err
		}},
		{"fleet.handler", func() (func() error, error) {
			gw, err := newFleet()
			if err != nil {
				return nil, err
			}
			h, digest := fleet.Handler(gw, fleet.HandlerOptions{}), gw.RingDigest()
			return func() error {
				for _, body := range in.presplit {
					if err := post(h, body, digest); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}},
	}

	out := map[string]value{}
	ns := map[string]float64{}
	al := map[string]float64{}
	for _, s := range steps {
		n, a, err := timeStep(s, in.reports, reps)
		if err != nil {
			return nil, err
		}
		ns[s.name], al[s.name] = n, a
	}
	// bms.self: what the shard's ingest adds beyond the layers it calls.
	ns["bms.self"], al["bms.self"] = ns["bms.ingest_wire"], al["bms.ingest_wire"]
	for _, part := range []string{"wire.decode", "classify.predict", "store.add", "occupancy.observe"} {
		ns["bms.self"] -= ns[part]
		al["bms.self"] -= al[part]
	}
	for _, name := range ladderSteps {
		out[name+"_ns_per_report"] = value{V: ns[name], N: in.reports}
		out[name+"_allocs_per_report"] = value{V: al[name], N: in.reports}
	}

	var frameBytes int
	for _, f := range in.frames {
		frameBytes += len(f)
	}
	out["wire.frame_bytes_per_report"] = value{V: float64(frameBytes) / float64(in.reports), N: in.reports}

	t := time.Now()
	for _, batch := range in.batches {
		for i := range batch {
			if _, err := rg.Owner(batch[i].Device, nil); err != nil {
				return nil, err
			}
		}
	}
	out["ring.owner_ns_per_lookup"] = value{V: float64(time.Since(t)) / float64(in.reports), N: in.reports}

	// One durable append under fsync=batch: framing, write and fsync.
	d, err := walDir()
	if err != nil {
		return nil, err
	}
	w, err := store.OpenWAL(d, store.ObsStripes, store.FsyncBatch, 0)
	if err != nil {
		return nil, err
	}
	syncs := min(ladderSyncs, len(in.frames))
	t = time.Now()
	if err := appendAll(w, in.frames[:syncs]); err != nil {
		return nil, err
	}
	out["store.wal_sync_ms"] = value{V: time.Since(t).Seconds() * 1e3 / float64(syncs), N: syncs}
	if err := w.Close(); err != nil {
		return nil, err
	}

	// One compaction of shard-durable's steady state: 64 devices at
	// their 1000-observation retention.
	steady := &system{plan: plan{w: workload{devices: devices}, scale: p.scale}, b: b}
	steady.streams, _, _ = experiments.SynthCrowdStreams(b, devices, reportsPerLap, p.seed)
	if d, err = walDir(); err != nil {
		return nil, err
	}
	srv, err := steady.feedDirect(d, snap, 1, 0, steady.plan.fillLaps()*reportsPerLap)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	if err := srv.CompactWAL(); err != nil {
		return nil, err
	}
	out["store.wal_compact_ms"] = value{V: time.Since(t).Seconds() * 1e3, N: 1}
	return out, srv.Close()
}

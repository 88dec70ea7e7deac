// Package bms implements the Building Management Server of Section IV.B:
// a REST service (the paper used Flask behind a Tornado WSGI container;
// here net/http) that ingests device observations and fingerprints,
// trains the scene-analysis SVM on demand, answers occupancy queries, and
// feeds the demand-response HVAC/lighting controllers that motivate the
// whole system.
//
// The report path is built for crowds: observations arrive one at a time
// (POST /api/v1/observations) or in coalesced batches
// (POST /api/v1/observations:batch, fed by transport.BatchingUplink).
// Store and tracker state are lock-striped per device, classification
// runs outside any lock against an immutable model snapshot, and the
// HTTP handlers decode and encode through pooled buffers, so concurrent
// ingest from many devices does not serialise on a single mutex.
package bms

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"occusim/internal/building"
	"occusim/internal/classify"
	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/occupancy"
	"occusim/internal/overload"
	"occusim/internal/store"
	"occusim/internal/svm"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// Server is the BMS application. Create with NewServer; serve via
// Handler.
type Server struct {
	bld *building.Building
	st  *store.Store

	// clsMu guards only the classifier identity: a model record's apply
	// swaps the pointer, ingest takes a snapshot and predicts lock-free
	// (trained models are immutable). modelSnap is the distributable form
	// of the live model, kept under the same lock so a snapshot can never
	// pair one training run's beacon order with another's weights.
	clsMu      sync.RWMutex
	classifier classify.Classifier
	modelSnap  ModelSnapshot
	// modelMu serialises model commits (Train, InstallModel): each
	// decides its version against the live one, logs and applies as one
	// step.
	modelMu sync.Mutex

	// tracker is striped per device; see occupancy.Sharded.
	tracker *occupancy.Sharded

	// dur is the WAL attachment (nil for a volatile server). Durable
	// servers log every mutation before applying it; see durable.go.
	dur *durability

	// gate bounds concurrent ingest admissions; nil (the default) admits
	// everything. Both the in-process Ingest/IngestBatch entry points
	// and the HTTP handlers pass through it, so a LocalShard fleet sheds
	// exactly like an HTTP one. See SetAdmission.
	gate *overload.Gate

	// met is the telemetry handle bundle (nil until Instrument): ingest
	// timing, lease transition counters, and the flight recorder. See
	// telemetry.go.
	met *serverMetrics

	// lease is the gateway-leadership grant this shard arbitrates:
	// the highest epoch ever granted (durable on durable servers) and
	// its holder. Writes stamped with a lower epoch are fenced; see
	// lease.go.
	lease leaseState

	// streams are the upgraded connections being served — gateways on
	// the shard route, devices on the upload route; see stream.go.
	streams StreamSet
}

// NewServer builds a BMS for the given building. Until a model is
// trained, observations are classified with the proximity technique, as
// in the authors' earlier system. debounce configures the occupancy
// tracker.
func NewServer(b *building.Building, st *store.Store, debounce int) (*Server, error) {
	if b == nil || st == nil {
		return nil, fmt.Errorf("bms: building and store are required")
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("bms: %w", err)
	}
	tr, err := occupancy.NewSharded(debounce)
	if err != nil {
		return nil, err
	}
	return &Server{
		bld:        b,
		st:         st,
		tracker:    tr,
		classifier: classify.NewProximity(b, 0),
	}, nil
}

// SetAdmission installs a bounded admission gate on the ingest paths:
// up to MaxInflight ingests run at once, MaxQueue more wait, and the
// rest are shed with an overload error (HTTP face: 429 + Retry-After).
// The zero config removes the gate. Call before serving traffic; the
// gate only covers observation ingest — reads, training and migration
// are never shed.
func (s *Server) SetAdmission(cfg overload.Config) {
	s.gate = overload.NewGate(cfg)
}

// classifierSnapshot returns the live classifier; predictions against it
// are lock-free because trained models are immutable.
func (s *Server) classifierSnapshot() classify.Classifier {
	s.clsMu.RLock()
	defer s.clsMu.RUnlock()
	return s.classifier
}

// ingestScratch is the working memory of one ingest call, whichever
// face it came in by, and of one replayed observation record: the
// classifier's rows, and the per-report columns — store form, room,
// tracker input — filled in one pass and applied in another (applyObs).
// Pooled, and cleared on the way back so an idle entry pins no device
// name, beacon slab or room.
type ingestScratch struct {
	cls   classify.Scratch
	obs   []store.Observation
	rooms []string
	track []occupancy.Classification
}

// pooledScratchMax keeps the columns of a one-off giant batch out of
// the pool.
const pooledScratchMax = 4096

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

func getScratch() *ingestScratch { return scratchPool.Get().(*ingestScratch) }

// size sets the columns to n reports.
func (sc *ingestScratch) size(n int) {
	if cap(sc.obs) < n {
		sc.obs = make([]store.Observation, n)
		sc.rooms = make([]string, n)
		sc.track = make([]occupancy.Classification, n)
	}
	sc.obs, sc.rooms, sc.track = sc.obs[:n], sc.rooms[:n], sc.track[:n]
}

// release returns the scratch to the pool. Nothing handed out of an
// ingest call may alias it: the store and the tracker copy what they
// keep, and a caller-facing rooms slice is copied out first.
func (sc *ingestScratch) release() {
	if cap(sc.obs) > pooledScratchMax {
		return
	}
	clear(sc.obs)
	clear(sc.rooms)
	clear(sc.track)
	scratchPool.Put(sc)
}

// ingest is the one way reports enter the server, whichever face they
// came in by: fence → admission gate → validate → store form → classify
// → log → apply (store, then tracker: applyObs, which replay runs too) →
// count. gwEpoch is the gateway leadership stamp (0 = unfenced, see
// admitEpoch). payload, when non-nil, is the wire payload b was decoded
// from: a durable server logs those received, already checksummed bytes
// instead of encoding b again. b is not retained. The returned rooms —
// one per report, in batch order — are sc's column, valid until its
// release.
//
// Reports of one device must be ordered by time within the batch (the
// coalescing uplink preserves send order); different devices may
// interleave freely. A malformed report rejects the batch before
// anything is stored. A sequenced report at or below its device's
// high-water mark (a retransmission of something already committed) is
// acknowledged as a no-op: its room is still predicted and returned —
// prediction is a pure function of the immutable model, so the answer
// matches the original delivery — but neither store nor tracker advance,
// which is what makes retrying transports exactly-once, and a
// whole-batch retransmission after a partial failure re-apply only the
// part that never landed.
func (s *Server) ingest(gwEpoch uint64, b *wire.Batch, payload []byte, sc *ingestScratch) ([]string, error) {
	if err := s.admitEpoch(gwEpoch); err != nil {
		return nil, err
	}
	n := b.Len()
	if n == 0 {
		return nil, nil
	}
	sm := s.met
	var start time.Time
	if sm != nil {
		start = time.Now()
	}
	release, err := s.gate.Acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	if err := b.Check(); err != nil {
		return nil, fmt.Errorf("bms: batch %w", err)
	}
	sc.size(n)
	wireObservations(b, sc.obs)
	// Predict before storing: prediction is pure, every sample sees one
	// immutable model snapshot, and a durable server must log each report
	// with its room before any state moves.
	cls := s.classifierSnapshot()
	for i := range sc.obs {
		sc.rooms[i] = cls.PredictSpan(sc.obs[i].Beacons, &sc.cls)
	}
	// Log-then-apply: the whole batch (dups included — replay
	// re-deduplicates against the recovered marks) reaches the WAL before
	// any state moves, under one guard so a concurrent compaction cannot
	// snapshot between the append and the apply.
	if s.dur != nil {
		defer s.maybeCompact() // after the guard ends: it may wait for a compaction
	}
	s.hold(false)
	defer s.release(false)
	if err := s.logObservations(b, payload, sc.rooms); err != nil {
		return nil, err
	}
	// Stale retransmissions keep their predicted room in the response
	// (positional contract) but advance neither store nor tracker.
	stale, err := s.applyObs(sc)
	if err != nil {
		return nil, err
	}
	if sm != nil {
		sm.reports.Add(uint64(n))
		sm.batchSize.Observe(int64(n))
		sm.dedupDrops.Add(uint64(stale))
		sm.ingestLatency.Since(start)
	}
	return sc.rooms, nil
}

// ingestOwned runs the core on a pooled scratch and hands the rooms out
// as the caller's own slice.
func (s *Server) ingestOwned(gwEpoch uint64, b *wire.Batch, payload []byte) ([]string, error) {
	sc := getScratch()
	defer sc.release()
	rooms, err := s.ingest(gwEpoch, b, payload, sc)
	return slices.Clone(rooms), err
}

// Ingest processes one report — a batch of one — and returns the
// predicted room. Exposed for in-process (non-HTTP) wiring in the
// simulator.
func (s *Server) Ingest(r transport.Report) (string, error) {
	rooms, err := s.IngestBatch([]transport.Report{r})
	if err != nil {
		return "", err
	}
	return rooms[0], nil
}

// IngestBatch processes many reports in one pass (see ingest) and
// returns the predicted room per report, in order.
func (s *Server) IngestBatch(reports []transport.Report) ([]string, error) {
	return s.ingestReports(0, reports)
}

// ingestReports is IngestBatch behind the leadership fence — the
// in-process door for reports held as structs: they are rendered into a
// pooled wire.Batch (the strict identity parse every face shares) and
// take the core. The HTTP JSON routes do not come through here; they
// decode straight into the batch (box.UploadJSON).
func (s *Server) ingestReports(gwEpoch uint64, reports []transport.Report) ([]string, error) {
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := transport.EncodeReports(b, reports); err != nil {
		return nil, fmt.Errorf("bms: batch: %w", err)
	}
	return s.ingestOwned(gwEpoch, b, nil)
}

// DirectUplink delivers reports straight into an in-process Server,
// standing in for the Wi-Fi HTTP path without a socket. It implements
// transport.Uplink and transport.BatchSender, so a
// transport.BatchingUplink wrapped around it hands whole batches to
// IngestBatch in one call.
type DirectUplink struct{ Server *Server }

// Name implements transport.Uplink.
func (u DirectUplink) Name() string { return "bms-direct" }

// Send implements transport.Uplink.
func (u DirectUplink) Send(r transport.Report) error {
	_, err := u.Server.Ingest(r)
	return err
}

// SendBatch implements transport.BatchSender.
func (u DirectUplink) SendBatch(reports []transport.Report) error {
	_, err := u.Server.IngestBatch(reports)
	return err
}

// AddFingerprint stores one labelled sample (the collection phase).
func (s *Server) AddFingerprint(sample fingerprint.Sample) error {
	valid := sample.Room == building.Outside
	if !valid {
		if _, ok := s.bld.RoomByName(sample.Room); ok {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("bms: fingerprint labelled with unknown room %q", sample.Room)
	}
	fp := fpRecJSON{Room: sample.Room, AtNanos: int64(sample.At), Distances: make(map[string]float64, len(sample.Distances))}
	for id, d := range sample.Distances {
		fp.Distances[id.String()] = d
	}
	_, err := s.commit(0, &walRecord{T: recFP, FP: &fp})
	return err
}

// TrainResult reports the outcome of a training run.
type TrainResult struct {
	Samples        int      `json:"samples"`
	Classes        []string `json:"classes"`
	SupportVectors int      `json:"supportVectors"`
	ModelVersion   int      `json:"modelVersion"`
}

// Train fits the scene-analysis SVM on the stored fingerprints and
// switches classification to it. C and gamma follow the paper's choice
// of an RBF kernel; non-positive values select defaults. A fit the
// collected samples cannot make is a conflict (409 over HTTP).
func (s *Server) Train(c, gamma float64, seed uint64) (TrainResult, error) {
	ds := s.st.FingerprintDataset()
	if ds.Len() == 0 {
		return TrainResult{}, conflict(fmt.Errorf("bms: no fingerprints collected"))
	}
	if c <= 0 {
		c = 10
	}
	if gamma <= 0 {
		gamma = 1 / float64(len(ds.Beacons)+1)
	}
	scene, err := classify.TrainSceneSVM(ds, svm.TrainConfig{
		C:      c,
		Kernel: svm.RBF{Gamma: gamma},
		Seed:   seed,
	})
	if err != nil {
		return TrainResult{}, conflict(err)
	}
	blob, err := json.Marshal(scene.Model())
	if err != nil {
		return TrainResult{}, fmt.Errorf("bms: serialise model: %w", err)
	}
	snap := ModelSnapshot{Model: blob}
	for _, id := range scene.Beacons() {
		snap.Beacons = append(snap.Beacons, id.String())
	}
	version, err := s.commitModel(snap, scene)
	if err != nil {
		return TrainResult{}, err
	}
	return TrainResult{
		Samples:        ds.Len(),
		Classes:        scene.Model().Classes(),
		SupportVectors: scene.Model().NumSupportVectors(),
		ModelVersion:   version,
	}, nil
}

// ModelSnapshot is the distributable form of a trained classifier: the
// serialised SVM plus the beacon feature order it was trained with
// (columns are positional, so the order must travel with the weights)
// and the trainer's model version. The fleet gateway pushes snapshots to
// every shard; PUT /api/v1/model accepts the same shape over HTTP and
// GET /api/v1/model answers it.
type ModelSnapshot struct {
	Beacons []string        `json:"beacons"`
	Model   json.RawMessage `json:"model"`
	Version int             `json:"version"`
}

// ModelSnapshot captures the currently trained scene model for
// distribution. ok is false until a model has been trained or
// installed. The snapshot is stored whole at train/install time, so a
// read racing a retrain sees either the old model or the new one —
// never one run's beacon order with another's weights.
func (s *Server) ModelSnapshot() (ModelSnapshot, bool) {
	s.clsMu.RLock()
	defer s.clsMu.RUnlock()
	return s.modelSnap, s.modelSnap.Model != nil
}

// InstallModel switches classification to a model trained elsewhere —
// the receiving half of fleet snapshot distribution — and returns the
// stored model version. A snapshot that does not parse, or whose beacon
// count disagrees with the model's, is refused before anything is
// logged (sceneOf).
func (s *Server) InstallModel(snap ModelSnapshot) (int, error) {
	scene, err := sceneOf(snap)
	if err != nil {
		return 0, fmt.Errorf("bms: install: %w", err)
	}
	return s.commitModel(snap, scene)
}

// sceneOf parses and checks a model snapshot. Its beacon order defines
// the feature columns, exactly as on the trainer, so a snapshot whose
// beacon count disagrees with the model's trained feature dimension is
// refused (it would scramble every feature vector or index the scaler
// out of range).
func sceneOf(snap ModelSnapshot) (*classify.SceneSVM, error) {
	if len(snap.Model) == 0 {
		return nil, fmt.Errorf("empty model")
	}
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
		return nil, fmt.Errorf("decode model: %w", err)
	}
	if got, want := len(beacons), model.NumFeatures(); got != want {
		return nil, fmt.Errorf("snapshot carries %d beacons but the model was trained on %d features", got, want)
	}
	return classify.NewSceneSVM(beacons, model), nil
}

// commitModel is the one commit of a model record, a training run's or
// a distribution's. The version is decided against the live one under
// modelMu: a snapshot without one (a training run) takes the next; one
// at or below the live version is a stale or duplicate distribution —
// the shard already runs that model or a newer one — and changes and
// logs nothing.
func (s *Server) commitModel(snap ModelSnapshot, scene *classify.SceneSVM) (int, error) {
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	_, live := s.st.Model()
	switch {
	case snap.Version <= 0:
		snap.Version = live + 1
	case snap.Version <= live:
		return live, nil
	}
	out, err := s.commit(0, &walRecord{T: recModel, Snap: &snap, scene: scene})
	return out.version, err
}

// DwellTotals returns the accumulated per-room dwell time summed over
// all devices, out of the same summary pass Occupancy renders.
func (s *Server) DwellTotals() map[string]time.Duration {
	return RenderDwell(s.tracker.Summary())
}

// DeviceState is the wire form of one device's migratable server
// state: the occupancy tracker slice plus the ingest dedup high-water
// mark. The fleet gateway evicts it from a device's old shard owner
// and installs it on the new one when the ring reassigns the device,
// so fail-over neither restarts debounce, nor strands dwell time, nor
// reopens the dedup window for in-flight retransmissions.
type DeviceState struct {
	occupancy.DeviceState
	// Epoch and Seq are the device's ingest high-water mark.
	Epoch uint64 `json:"epoch,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
}

// ExportDevice copies the device's migratable state without removing
// it: tracker state (committed room, pending debounce, dwell) and the
// store's high-water mark. ok is false when the server holds neither —
// a device is known by its tracker state or a non-zero mark.
func (s *Server) ExportDevice(device string) (DeviceState, bool) {
	tr, ok := s.tracker.Export(device)
	epoch, seq := s.st.SeqMark(device)
	if !ok && epoch == 0 && seq == 0 {
		return DeviceState{}, false
	}
	if !ok {
		tr = occupancy.DeviceState{Device: device}
	}
	return DeviceState{DeviceState: tr, Epoch: epoch, Seq: seq}, true
}

// EvictDevice removes the device's migratable state — what ExportDevice
// copies, and the store's observations — the last step of a move, once
// the new owner holds the copy. After eviction the device is absent from
// every occupancy view; its committed events remain, as history. gwEpoch
// is the gateway's leadership stamp (0 = unfenced, see admitEpoch): a
// deposed gateway must not rip device state out of a shard mid-migration.
// The eviction is logged whether or not the device is known — evicting
// an unknown device replays as the same no-op it is live, and a retried
// evict is one — and one the log refuses leaves the device in place.
func (s *Server) EvictDevice(gwEpoch uint64, device string) error {
	_, err := s.commit(gwEpoch, &walRecord{T: recEvict, Device: device})
	return err
}

// InstallDevice installs a migrated device's state behind the
// leadership fence, overwriting any stale copy this server holds (the
// migrated state is the newer truth). Installing the same state twice
// is idempotent.
func (s *Server) InstallDevice(gwEpoch uint64, st DeviceState) error {
	if st.Device == "" {
		return fmt.Errorf("bms: install device: empty device name")
	}
	_, err := s.commit(gwEpoch, &walRecord{T: recInstall, State: &st})
	return err
}

// ExpireBefore evicts every device whose last observation predates
// cutoff (tracker state and retained observations) and returns the
// evicted names — the TTL sweep that ages out residue on a shard that
// could not be migrated from while unreachable. It is fenced like every
// write: a zombie's sweep would evict devices the new leader serves.
//
// The sweep is the one record decided from the state it sees, and so
// the one that does not commute with an upload: a device that resumes
// between the choice and the apply would lose its fresh observation
// live and be expired in replay. It runs under the log's exclusive hold,
// the barrier a compaction's cut takes, so it names, logs and expires
// its devices with no upload in flight. Sweeps come at most once per
// TTL/4 of report clock.
//
// The ingest high-water mark is deliberately retained (and never even
// transiently absent — store.ExpireDevice drops only the observation
// log): a late retransmission of a batch the shard committed before
// the device went quiet must stay a no-op even after its occupancy
// state aged out, or expiry would silently reopen the exactly-once
// window. A mark is two integers; a device that genuinely returns
// after a long absence re-enters through the epoch bump its restart
// declares.
func (s *Server) ExpireBefore(gwEpoch uint64, cutoff time.Duration) ([]string, error) {
	if err := s.admitEpoch(gwEpoch); err != nil {
		return nil, err
	}
	s.hold(true)
	defer s.release(true)
	rec := walRecord{T: recExpire, Devices: s.tracker.IdleBefore(cutoff)}
	if len(rec.Devices) == 0 {
		return nil, nil
	}
	if _, err := s.logApply(&rec); err != nil {
		return nil, err
	}
	return rec.Devices, nil
}

// OccupancySnapshot is the GET /api/v1/occupancy payload. It writes
// itself (MarshalJSON, replyjson.go).
type OccupancySnapshot struct {
	Rooms   map[string]int    `json:"rooms"`
	Devices map[string]string `json:"devices"`
}

// Occupancy returns the current per-room head counts and device rooms,
// both out of one summary pass — each tracker stripe read once under its
// lock — so a device that moves during the read is counted in the room
// it is listed in. Rooms nobody is in are absent.
func (s *Server) Occupancy() OccupancySnapshot {
	return RenderOccupancy(s.tracker.Summary())
}

// Events returns all committed occupancy events so far, in nondecreasing
// time order.
func (s *Server) Events() []occupancy.Event {
	return s.tracker.Events()
}

// Handler returns the REST API: the one device-facing route table
// (Routes) over this server, which is its own trainer, plus what only a
// shard serves — the gateway stream, which carries every verb a gateway
// has, and the lease read — and the reads only a box has: rooms, energy,
// the model and a device's latest report.
func (s *Server) Handler() http.Handler {
	mux := Routes(box{s}, s)
	mux.HandleFunc("GET "+wire.StreamPath, func(w http.ResponseWriter, r *http.Request) {
		serveUpgrade(w, r, wire.StreamProtocol, &s.streams, s.serveShardStream)
	})
	mux.HandleFunc("GET /api/v1/devices/{device}", s.handleDevice)
	mux.HandleFunc("GET /api/v1/devices/{device}/state", s.handleDeviceState)
	read(mux, "/api/v1/lease", func() (map[string]any, error) {
		granted, holder := s.GrantedLease()
		return map[string]any{"granted": granted, "holder": holder}, nil
	})
	mux.HandleFunc("GET /api/v1/rooms", s.handleRooms)
	mux.HandleFunc("GET /api/v1/energy", s.handleEnergy)
	mux.HandleFunc("GET /api/v1/model", s.handleModel)
	return mux
}

// box is one server as the route table serves it.
type box struct{ *Server }

// Health is up until a durable server's log stops; then it names the
// failure, since every write is refused with a 503 until a reopen.
func (b box) Health() (any, bool) {
	if err := b.LogErr(); err != nil {
		return map[string]string{"status": "down", "building": b.bld.Name, "error": err.Error()}, false
	}
	return map[string]string{"status": "ok", "building": b.bld.Name}, true
}

// UploadJSON renders the upload into a pooled batch — where a beacon
// identity that did not parse refuses it whole — and takes the core on a
// pooled scratch.
func (b box) UploadJSON(u *transport.JSONUpload, rooms []string) ([]string, error) {
	wb := wire.GetBatch()
	defer wire.PutBatch(wb)
	if err := u.AppendTo(wb); err != nil {
		return rooms, fmt.Errorf("bms: batch: %w", err)
	}
	sc := getScratch()
	defer sc.release()
	got, err := b.ingest(0, wb, nil, sc)
	return append(rooms, got...), err
}

// UploadFrame decodes the frame and takes the core with no intermediate
// report slice; a durable server logs the frame's payload as received.
// A box splits nothing, so it reads no ring digest.
func (b box) UploadFrame(_ string, body []byte, rooms []string) ([]string, error) {
	sc := getScratch()
	defer sc.release()
	got, err := b.ingestWireFrame(0, body, sc)
	return append(rooms, got...), err
}

func (b box) Occupancy() (OccupancySnapshot, error)          { return b.Server.Occupancy(), nil }
func (b box) DwellTotals() (map[string]time.Duration, error) { return b.Server.DwellTotals(), nil }
func (b box) Rollup() (Rollup, error)                        { return RenderRollup(b.Summary()), nil }
func (b box) Events() ([]occupancy.Event, error)             { return b.Server.Events(), nil }
func (b box) Trained(res TrainResult) (any, error)           { return res, nil }
func (b box) Streams() *StreamSet                            { return &b.streams }

func (b box) PutModel(snap ModelSnapshot) (any, error) {
	version, err := b.InstallModel(snap)
	if err != nil {
		return nil, err
	}
	return map[string]int{"version": version}, nil
}

// EventJSON is the wire form of an occupancy event, shared with the
// fleet layer's HTTP shard client so producer and consumer cannot
// drift apart on the encoding.
type EventJSON struct {
	AtSeconds float64 `json:"atSeconds"`
	Device    string  `json:"device"`
	Kind      string  `json:"kind"`
	Room      string  `json:"room"`
}

// EventsReply is the GET /api/v1/events body, and a shard's answer to a
// gateway's events read (wire.StreamEvents).
type EventsReply struct {
	Events []EventJSON `json:"events"`
}

// eventsReply renders an event history in its wire form.
func eventsReply(events []occupancy.Event) EventsReply {
	out := EventsReply{Events: make([]EventJSON, 0, len(events))}
	for _, e := range events {
		out.Events = append(out.Events, EventJSON{AtSeconds: e.At.Seconds(), Device: e.Device, Kind: e.Kind.String(), Room: e.Room})
	}
	return out
}

// Event parses the wire form back. The time is rounded, not truncated:
// the wire carries float seconds, and a federated merge sorts on exact
// nanosecond times, so a 1 ns truncation would reorder events relative
// to the shard that committed them.
func (e EventJSON) Event() (occupancy.Event, error) {
	ev := occupancy.Event{At: time.Duration(math.Round(e.AtSeconds * float64(time.Second))), Device: e.Device, Room: e.Room}
	switch e.Kind {
	case occupancy.Enter.String():
		ev.Kind = occupancy.Enter
	case occupancy.Exit.String():
		ev.Kind = occupancy.Exit
	default:
		return ev, fmt.Errorf("bms: unknown event kind %q", e.Kind)
	}
	return ev, nil
}

func (s *Server) handleRooms(w http.ResponseWriter, r *http.Request) {
	type roomJSON struct {
		Name    string `json:"name"`
		Beacons int    `json:"beacons"`
	}
	rooms := make([]roomJSON, 0, len(s.bld.Rooms))
	for _, room := range s.bld.Rooms {
		rooms = append(rooms, roomJSON{
			Name:    room.Name,
			Beacons: len(s.bld.BeaconsInRoom(room.Name)),
		})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"building": s.bld.Name, "rooms": rooms})
}

// handleEnergy runs the demand-response comparison over the occupancy
// history. Optional query parameter horizonSeconds overrides the default
// (the latest event time).
func (s *Server) handleEnergy(w http.ResponseWriter, r *http.Request) {
	events := s.Events()
	horizon := time.Duration(0)
	if v := r.URL.Query().Get("horizonSeconds"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || secs <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad horizonSeconds %q", v))
			return
		}
		horizon = time.Duration(secs * float64(time.Second))
	} else if n := len(events); n > 0 {
		horizon = events[n-1].At
	}
	if horizon <= 0 {
		writeError(w, http.StatusConflict, fmt.Errorf("no occupancy history to compare"))
		return
	}
	cmp, err := CompareEnergy(s.bld.RoomNames(), events, horizon, DefaultHVAC())
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"horizonSeconds": cmp.Horizon.Seconds(),
		"baselineKWh":    cmp.BaselineKWh,
		"demandKWh":      cmp.DemandKWh,
		"savingFraction": cmp.SavingFraction,
	})
}

// handleModel answers the live model snapshot, the shape PUT
// /api/v1/model installs, so a model read off one server installs on
// another.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.ModelSnapshot()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no model trained"))
		return
	}
	WriteJSON(w, http.StatusOK, snap)
}

// handleDeviceState answers the device's migratable state without
// removing it — ExportDevice over HTTP, for operators inspecting what a
// migration would move (the migration itself exports on the shard
// stream).
func (s *Server) handleDeviceState(w http.ResponseWriter, r *http.Request) {
	device := r.PathValue("device")
	st, ok := s.ExportDevice(device)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no state for device %q", device))
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	device := r.PathValue("device")
	obs, ok := s.st.Latest(device)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown device %q", device))
		return
	}
	room := s.tracker.RoomOf(device)
	beacons := make([]transport.BeaconReport, 0, len(obs.Beacons))
	for _, b := range obs.Beacons {
		beacons = append(beacons, transport.BeaconReport{
			ID:       b.ID.String(),
			Distance: b.Distance,
			RSSI:     b.RSSI,
		})
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"device":    device,
		"room":      room,
		"atSeconds": obs.At.Seconds(),
		"beacons":   beacons,
	})
}

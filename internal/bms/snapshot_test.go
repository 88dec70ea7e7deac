package bms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/ibeacon"
	"occusim/internal/obs"
	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// openDurableRetain opens a durable server with automatic compaction
// off, so a test decides when a snapshot is cut.
func openDurableRetain(t testing.TB, dir string, retain int, policy store.FsyncPolicy) *Server {
	t.Helper()
	st, err := store.New(retain)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenDurableServer(building.PaperHouse(), st, 2, DurableConfig{Dir: dir, Policy: policy, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newestSnapshot returns the bytes of the data directory's snapshot.
func newestSnapshot(t testing.TB, dir string) (path string, data []byte) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no snapshot in %s (%v)", dir, err)
	}
	sort.Strings(names)
	path = names[len(names)-1]
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// sameObservations is DeepEqual with floats compared on their bits, so
// a NaN distance equals itself.
func sameObservations(a, b []store.Observation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Device != y.Device || x.At != y.At || x.Epoch != y.Epoch || x.Seq != y.Seq || len(x.Beacons) != len(y.Beacons) {
			return false
		}
		for k := range x.Beacons {
			p, q := x.Beacons[k], y.Beacons[k]
			if p.ID != q.ID || math.Float64bits(p.Distance) != math.Float64bits(q.Distance) || math.Float64bits(p.RSSI) != math.Float64bits(q.RSSI) {
				return false
			}
		}
	}
	return true
}

// serverState is a copy of every view recovery must reproduce, taken
// at one moment so it can be compared after the server has moved on.
type serverState struct {
	occupancy   OccupancySnapshot
	events      []occupancy.Event
	dwell       map[string]time.Duration
	devices     []string
	exports     map[string]DeviceState
	histories   map[string][]store.Observation
	leaseEpoch  uint64
	leaseHolder string
	beacons     []ibeacon.BeaconID
	classifier  string
	model       ModelSnapshot
}

// history copies the device's retained observations out of the store's
// cut, the view a snapshot writer serialises.
func history(st *store.Store, device string) []store.Observation {
	for _, d := range st.Cut().Devices {
		if d.Device == device {
			return append([]store.Observation(nil), d.History...)
		}
	}
	return nil
}

func stateOf(s *Server) serverState {
	st := serverState{
		occupancy:  s.Occupancy(),
		events:     s.Events(),
		dwell:      s.DwellTotals(),
		devices:    s.KnownDevices(),
		exports:    map[string]DeviceState{},
		histories:  map[string][]store.Observation{},
		beacons:    s.st.FingerprintDataset().Beacons,
		classifier: fmt.Sprintf("%T", s.classifierSnapshot()),
	}
	for _, device := range st.devices {
		if ds, ok := s.ExportDevice(device); ok {
			st.exports[device] = ds
		}
		st.histories[device] = history(s.st, device)
	}
	st.leaseEpoch, st.leaseHolder = s.GrantedLease()
	st.model, _ = s.ModelSnapshot()
	return st
}

// requireState compares two captures view by view.
func requireState(t *testing.T, got, want serverState) {
	t.Helper()
	if err := diffState(got, want); err != nil {
		t.Fatal(err)
	}
}

// diffState names the first view in which two captures differ.
func diffState(got, want serverState) error {
	if !reflect.DeepEqual(got.occupancy, want.occupancy) {
		return fmt.Errorf("occupancy\n got: %+v\nwant: %+v", got.occupancy, want.occupancy)
	}
	for i := 0; i < len(got.events) || i < len(want.events); i++ {
		if i >= len(got.events) || i >= len(want.events) || got.events[i] != want.events[i] {
			return fmt.Errorf("events diverge at %d of %d (want %d)\n got: %+v\nwant: %+v", i, len(got.events), len(want.events), got.events[min(i, len(got.events)):min(i+3, len(got.events))], want.events[min(i, len(want.events)):min(i+3, len(want.events))])
		}
	}
	if !reflect.DeepEqual(got.dwell, want.dwell) {
		return fmt.Errorf("dwell\n got: %+v\nwant: %+v", got.dwell, want.dwell)
	}
	if !reflect.DeepEqual(got.devices, want.devices) {
		return fmt.Errorf("devices\n got: %v\nwant: %v", got.devices, want.devices)
	}
	for _, device := range want.devices {
		g, gok := got.exports[device]
		w, wok := want.exports[device]
		if gok != wok || !reflect.DeepEqual(g, w) {
			return fmt.Errorf("device %s state\n got: %+v (%v)\nwant: %+v (%v)", device, g, gok, w, wok)
		}
		if !sameObservations(got.histories[device], want.histories[device]) {
			return fmt.Errorf("device %s history\n got: %+v\nwant: %+v", device, got.histories[device], want.histories[device])
		}
	}
	if got.leaseEpoch != want.leaseEpoch || got.leaseHolder != want.leaseHolder {
		return fmt.Errorf("lease (%d, %q), want (%d, %q)", got.leaseEpoch, got.leaseHolder, want.leaseEpoch, want.leaseHolder)
	}
	if !reflect.DeepEqual(got.beacons, want.beacons) || got.classifier != want.classifier || !reflect.DeepEqual(got.model, want.model) {
		return fmt.Errorf("training state diverged: %s / %d beacons / model version %d, want %s / %d / %d", got.classifier, len(got.beacons), got.model.Version, want.classifier, len(want.beacons), want.model.Version)
	}
	return nil
}

// requireSameState compares every view recovery must reproduce.
func requireSameState(t *testing.T, got, want *Server) {
	t.Helper()
	requireState(t, stateOf(got), stateOf(want))
}

// reportsOf renders a wire batch in report form, for the in-process door.
func reportsOf(b *wire.Batch) []transport.Report {
	out := make([]transport.Report, b.Len())
	for i := range out {
		out[i] = transport.Report{Device: b.Devices[i], AtSeconds: b.At[i], Epoch: b.Epoch[i], Seq: b.Seq[i]}
		for _, bc := range b.ReportBeacons(i) {
			out[i].Beacons = append(out[i].Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: bc.Distance, RSSI: bc.RSSI})
		}
	}
	return out
}

// takeUnchecked lands wb as a log written before ingest refused
// non-finite numbers holds it — classified, logged, then applied, as
// ingest does past its check — since replay still takes such a log and
// its snapshot must carry what it held.
func takeUnchecked(t *testing.T, s *Server, wb *wire.Batch) {
	t.Helper()
	sc := getScratch()
	defer sc.release()
	sc.size(wb.Len())
	wireObservations(wb, sc.obs)
	cls := s.classifierSnapshot()
	for i := range sc.obs {
		sc.rooms[i] = cls.PredictSpan(sc.obs[i].Beacons, &sc.cls)
	}
	s.hold(false)
	defer s.release(false)
	if err := s.logObservations(wb, nil, sc.rooms); err != nil {
		t.Fatal(err)
	}
	if _, err := s.applyObs(sc); err != nil {
		t.Fatal(err)
	}
}

// randomState drives a durable server into a state with every shape the
// snapshot must carry: non-finite distances (from a log written before
// ingest refused them), beacon-less and
// unsequenced reports, histories past the retention bound, a device
// expired down to its ingest mark, pending debounce progress, events,
// a lease, and (sometimes) a trained model.
func randomState(t *testing.T, s *Server, rng *rand.Rand) {
	t.Helper()
	b := building.PaperHouse()
	if rng.Intn(3) == 0 {
		trainServer(t, s, b)
	}
	if rng.Intn(2) == 0 {
		if _, _, err := s.GrantLease(uint64(1+rng.Intn(9)), "gateway-A"); err != nil {
			t.Fatal(err)
		}
	}
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1e-300}
	// The ghost reports first, long before everyone else: the sweep
	// below expires it down to its mark.
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := s.Ingest(sequenced(reportNear(b, "ghost", 0, float64(seq)), seq)); err != nil {
			t.Fatal(err)
		}
	}
	devices := 3 + rng.Intn(6)
	seqs := make([]uint64, devices)
	wb := &wire.Batch{}
	for round := 0; round < 8+rng.Intn(30); round++ {
		wb.Reset()
		for d := 0; d < devices; d++ {
			if rng.Intn(4) == 0 {
				continue
			}
			at := 1000 + float64(round)*2 + rng.Float64()
			epoch, seq := uint64(2), uint64(0)
			if rng.Intn(5) != 0 { // else unsequenced: Seq 0
				seqs[d]++
				seq = seqs[d]
			}
			wb.AddReport(fmt.Sprintf("dev-%c", 'a'+d), at, epoch, seq)
			near := rng.Intn(len(b.Beacons))
			for i, bc := range b.Beacons {
				if rng.Intn(6) == 0 {
					continue // and sometimes no beacon at all
				}
				dist := 1.5
				if i != near {
					dist = 6 + 3*rng.Float64()
				}
				if rng.Intn(12) == 0 {
					dist = odd[rng.Intn(len(odd))]
				}
				wb.AddBeacon(wire.Beacon{ID: bc.ID, Distance: dist, RSSI: -60 - dist})
			}
		}
		var err error
		switch framed := rng.Intn(2) == 0; {
		case wb.Check() != nil:
			takeUnchecked(t, s, wb)
		case framed:
			_, err = s.IngestWireFrameFenced(0, wire.AppendFrame(nil, wb))
		default:
			_, err = s.IngestBatch(reportsOf(wb))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if expired := expire(t, s, 500*time.Second); !reflect.DeepEqual(expired, []string{"ghost"}) {
		t.Fatalf("the sweep expired %v, want the ghost alone", expired)
	}
	if hist := history(s.st, "ghost"); len(hist) != 0 {
		t.Fatalf("ghost kept %d observations", len(hist))
	}
	if _, seq := s.st.SeqMark("ghost"); seq != 3 {
		t.Fatalf("ghost's mark is %d, want 3", seq)
	}
}

// TestSnapshotRoundTripProperty: whatever state a server is in, a
// compaction followed by a restart reproduces it — every view, every
// device's migratable state, every retained observation bit for bit —
// and compacting the recovered server writes the identical snapshot.
func TestSnapshotRoundTripProperty(t *testing.T) {
	var pending, events int
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(1200 + trial)))
		dir := t.TempDir()
		s1 := openDurableRetain(t, dir, 16, store.FsyncOff)
		randomState(t, s1, rng)
		events += len(s1.Events())
		for _, device := range s1.KnownDevices() {
			if st, _ := s1.ExportDevice(device); st.PendingCount > 0 {
				pending++
			}
		}
		if err := s1.CompactWAL(); err != nil {
			t.Fatal(err)
		}
		_, first := newestSnapshot(t, dir)
		// Abandon s1: the log is empty, so s2 is the snapshot alone.
		s2 := openDurableRetain(t, dir, 16, store.FsyncOff)
		requireSameState(t, s2, s1)
		if err := s2.CompactWAL(); err != nil {
			t.Fatal(err)
		}
		if _, second := newestSnapshot(t, dir); !bytes.Equal(first, second) {
			t.Fatalf("trial %d: the recovered server's snapshot differs from the one it recovered from (%d vs %d bytes)", trial, len(second), len(first))
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if pending == 0 || events == 0 {
		t.Fatalf("vacuous: %d devices mid-debounce, %d events across all trials", pending, events)
	}
}

// snapshotSections returns each section's [start, end) in a snapshot.
func snapshotSections(t *testing.T, snap []byte) (spans [][2]int, kinds []byte) {
	t.Helper()
	for off := 0; off < len(snap); {
		n := int(binary.LittleEndian.Uint32(snap[off+1 : off+5]))
		spans = append(spans, [2]int{off, off + 9 + n})
		kinds = append(kinds, snap[off+9])
		off += 9 + n
	}
	return spans, kinds
}

// TestSnapshotDamageFailsLoud: one flipped byte in any section — its
// header, its payload — or a section missing from the end makes
// OpenDurableServer fail. It never returns a server holding part of the
// state.
func TestSnapshotDamageFailsLoud(t *testing.T) {
	dir := t.TempDir()
	s := openDurableRetain(t, dir, 16, store.FsyncOff)
	randomState(t, s, rand.New(rand.NewSource(5)))
	if len(s.Events()) == 0 {
		t.Fatal("vacuous: the state has no events section")
	}
	if err := s.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	path, snap := newestSnapshot(t, dir)
	spans, kinds := snapshotSections(t, snap)
	if want := "HD"; len(kinds) < 4 || string(kinds[:2]) != want || kinds[len(kinds)-1] != secEvents {
		t.Fatalf("snapshot sections %q, want a header, several devices, events", kinds)
	}
	reopen := func(name string, damaged []byte) {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, filepath.Base(path)), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := store.New(16)
		srv, err := OpenDurableServer(building.PaperHouse(), st, 2, DurableConfig{Dir: d, Policy: store.FsyncOff})
		if err == nil {
			srv.Close()
			t.Fatalf("%s: the server opened over a damaged snapshot", name)
		}
	}
	for i, span := range spans {
		for _, at := range []int{span[0], span[0] + 2, span[0] + 6, span[0] + 9, (span[0] + span[1]) / 2, span[1] - 1} {
			damaged := append([]byte(nil), snap...)
			damaged[at] ^= 0x04
			reopen(fmt.Sprintf("section %d (%c), byte %d", i, kinds[i], at-span[0]), damaged)
		}
	}
	last := spans[len(spans)-1]
	reopen("events section cut off", snap[:last[0]])
	reopen("last device section cut out", append(append([]byte(nil), snap[:spans[len(spans)-2][0]]...), snap[last[0]:]...))
	reopen("a device section twice", append(append([]byte(nil), snap[:spans[2][0]]...), snap[spans[1][0]:]...))
	reopen("header only", snap[:spans[0][1]])
	reopen("empty file", nil)
	reopen("trailing garbage", append(append([]byte(nil), snap...), 0))
}

// TestSnapshotSplitsLongSections: a history or event list longer than
// one section continues in the next and restores whole. A section's
// identity table starts empty, so the continuation spells its identities
// out again; a device that has sighted more identities than the table
// holds — 300 here, over two sections — writes the ones past it literally
// every time, and restores exactly all the same.
func TestSnapshotSplitsLongSections(t *testing.T) {
	id := building.PaperHouse().Beacons[0].ID
	var hist, many []store.Observation
	for i := 0; i < 3*snapSectionMax/(8+1+1+1+40*wire.MinBeaconLen)+1; i++ {
		o := store.Observation{Device: "long", At: time.Duration(i), Seq: uint64(i + 1)}
		for k := 0; k < 40; k++ {
			o.Beacons = append(o.Beacons, store.BeaconDistance{ID: id, Distance: float64(k)})
		}
		hist = append(hist, o)
	}
	for i := 0; i < 6000; i++ { // ≈ 0.8 KB each: 45 of the 300 never enter the table
		o := store.Observation{Device: "many", At: time.Duration(i), Seq: uint64(i + 1)}
		for k := 0; k < 40; k++ {
			o.Beacons = append(o.Beacons, store.BeaconDistance{ID: ibeacon.BeaconID{UUID: id.UUID, Minor: uint16((40*i + k) % 300)}, Distance: float64(k), RSSI: -float64(i)})
		}
		many = append(many, o)
	}
	dir := t.TempDir()
	s1 := openDurableRetain(t, dir, len(hist), store.FsyncOff)
	s1.st.RestoreObservations("long", hist)
	s1.st.InstallSeqMark("long", 0, uint64(len(hist)))
	s1.st.RestoreObservations("many", many)
	s1.st.InstallSeqMark("many", 0, uint64(len(many)))
	if err := s1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	_, snap := newestSnapshot(t, dir)
	if _, kinds := snapshotSections(t, snap); string(kinds) != "HDDDDDD" {
		t.Fatalf("sections %q, want one history split over four and one over two", kinds)
	}
	s2 := openDurableRetain(t, dir, len(hist), store.FsyncOff)
	defer s2.Close()
	requireSameState(t, s2, s1)
}

// steadyState fills a durable server to the benchmark's shard-durable
// steady state: 64 devices at a 1000-observation retention bound, six
// beacons a report.
func steadyState(t testing.TB, dir string) *Server {
	t.Helper()
	s := openDurableRetain(t, dir, 1000, store.FsyncOff)
	b := building.PaperHouse()
	for d := 0; d < 64; d++ {
		device := fmt.Sprintf("dev-%04d", d)
		hist := make([]store.Observation, 1000)
		for i := range hist {
			o := store.Observation{Device: device, At: time.Duration(i) * 2 * time.Second, Epoch: 1, Seq: uint64(i + 1)}
			for k := 0; k < 6; k++ {
				bc := b.Beacons[k%len(b.Beacons)]
				o.Beacons = append(o.Beacons, store.BeaconDistance{ID: bc.ID, Distance: 1 + float64(k), RSSI: -60 - float64(k)})
			}
			hist[i] = o
		}
		s.st.RestoreObservations(device, hist)
		if _, err := s.Ingest(sequenced(reportNear(b, device, d%len(b.Beacons), 2000), 1001)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// countingWriter counts Write calls and bytes.
type countingWriter struct {
	writes, bytes, smallest int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.writes == 0 || len(p) < c.smallest {
		c.smallest = len(p)
	}
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// TestCompactionCostPins holds the snapshot writer to the two budgets
// the benchmark's bounds rest on: compacting 64 × 1000 retained
// observations allocates a few thousand objects (it was a million:
// sixteen per observation), and reaches the file in a few dozen writes
// (a 4 KiB buffer would make 3,700 — by itself past the 5 % bound on
// syscalls_per_report).
func TestCompactionCostPins(t *testing.T) {
	if testing.Short() {
		t.Skip("fills 64,000 observations")
	}
	s := steadyState(t, t.TempDir())
	defer s.Close()
	if allocs := testing.AllocsPerRun(2, func() {
		if err := s.CompactWAL(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4096 {
		t.Fatalf("CompactWAL of the steady state allocates %.0f objects, want ≤ 4096", allocs)
	}
	var cw countingWriter
	if err := s.cutDurableSnapshot()(&cw); err != nil {
		t.Fatal(err)
	}
	if cw.writes > 64 {
		t.Fatalf("the snapshot took %d Write calls for %d bytes, want ≤ 64", cw.writes, cw.bytes)
	}
	if perObs := float64(cw.bytes) / 64000; perObs > 125 {
		t.Fatalf("the snapshot is %d bytes, %.0f an observation, want ≤ 125 (six back-referenced beacons are 102)", cw.bytes, perObs)
	}
	t.Logf("snapshot: %d bytes in %d writes (smallest %d)", cw.bytes, cw.writes, cw.smallest)
}

// TestDurableBatchAppendsOnce: a relay-shaped batch — 64
// devices round-robin, two reports each — is one record: exactly one
// append and one fsync, however many in-memory stripes its devices
// hash to, and each device's reports replay in the order they were
// sent.
func TestDurableBatchAppendsOnce(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurableRetain(t, dir, 100, store.FsyncBatch)
	m := obs.New()
	s1.Instrument(m)
	b := building.PaperHouse()
	var batch []transport.Report
	for round := 0; round < 2; round++ {
		for d := 0; d < 64; d++ {
			r := reportNear(b, fmt.Sprintf("relay-%02d", d), (d+round)%len(b.Beacons), float64(10*round)+float64(d)/100)
			batch = append(batch, sequenced(r, uint64(round+1)))
		}
	}
	if _, err := s1.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	hists := m.TakeSnapshot().Histograms
	if got := hists["wal_append_seconds"].Count; got != 1 {
		t.Fatalf("%d appends for one batch, want 1", got)
	}
	if got := hists["wal_fsync_seconds"].Count; got != 1 {
		t.Fatalf("%d fsyncs for one batch, want 1", got)
	}
	s2 := openDurableRetain(t, dir, 100, store.FsyncBatch)
	defer s2.Close()
	requireSameState(t, s2, s1)
	var id ibeacon.BeaconID
	if hist := history(s2.st, "relay-07"); len(hist) != 2 || hist[0].Seq != 1 || hist[1].Seq != 2 || hist[0].Beacons[0].ID == id {
		t.Fatalf("relay-07 replayed as %+v", hist)
	}
}

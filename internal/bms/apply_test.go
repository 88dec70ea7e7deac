package bms

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// reopenCopy opens a crash copy of a data directory — what a kill at this
// moment would leave — and closes its log behind the test.
func reopenCopy(t *testing.T, dir string, retain int) *Server {
	t.Helper()
	s := openDurableRetain(t, copyDataDir(t, dir), retain, store.FsyncOff)
	t.Cleanup(func() { _ = s.dur.wal.Close() })
	return s
}

// TestReplayEqualsLive: whatever a seeded run of every record kind does to
// a durable server — uploads through both doors with retransmissions,
// device installs, evictions and sweeps, fingerprints, training runs,
// distributed models (newer, stale and duplicate), lease claims, writes
// stamped above, at and below the grant, and compactions between them — a
// crash copy of its data directory taken after any operation opens to
// exactly the state the live server held then. Replay and restore run the
// apply the live server ran, so this holds by construction; the test is
// what says so.
func TestReplayEqualsLive(t *testing.T) {
	const retain, ops = 8, 150
	b := building.PaperHouse()
	dir := t.TempDir()
	s := openDurableRetain(t, dir, retain, store.FsyncOff)
	defer s.Close()
	rng := rand.New(rand.NewSource(28))

	twin, _ := newTestServer(t)
	trainServer(t, twin, b)
	distributed, _ := twin.ModelSnapshot()

	devices := []string{"d0", "d1", "d2", "d3", "d4"}
	seqs := map[string]uint64{}
	clock := 100.0
	var sent [][]byte // every frame uploaded, for retransmission
	var evicted []DeviceState
	done := map[string]int{}
	stamp := func() uint64 {
		if rng.Intn(3) == 0 {
			return uint64(rng.Intn(6)) // below, at or above the grant
		}
		return 0
	}
	for op := 0; op < ops; op++ {
		var kind string
		var err error
		switch k := rng.Intn(20); {
		case k < 7:
			kind = "upload"
			wb := &wire.Batch{}
			for _, device := range devices {
				if rng.Intn(2) == 0 {
					continue
				}
				clock += 1 + rng.Float64()
				seqs[device]++
				wb.AddReport(device, clock, 1, seqs[device])
				near := rng.Intn(len(b.Beacons))
				for i, bc := range b.Beacons {
					dist := 7 + 2*rng.Float64()
					if i == near {
						dist = 1.5
					}
					wb.AddBeacon(wire.Beacon{ID: bc.ID, Distance: dist, RSSI: -60 - dist})
				}
			}
			frame := wire.AppendFrame(nil, wb)
			sent = append(sent, frame)
			if rng.Intn(2) == 0 {
				_, err = s.IngestWireFrameFenced(stamp(), frame)
			} else {
				_, err = s.ingestReports(stamp(), reportsOf(wb))
			}
		case k < 9:
			kind = "retransmit"
			if len(sent) > 0 {
				_, err = s.IngestWireFrameFenced(stamp(), sent[rng.Intn(len(sent))])
			}
		case k < 11:
			kind = "evict"
			device := devices[rng.Intn(len(devices))]
			st, ok := s.ExportDevice(device)
			if err = s.EvictDevice(stamp(), device); err == nil && ok {
				evicted = append(evicted, st)
			}
		case k < 12:
			kind = "install"
			if len(evicted) > 0 {
				err = s.InstallDevice(stamp(), evicted[rng.Intn(len(evicted))])
			}
		case k < 13:
			kind = "expire"
			var expired []string
			if expired, err = s.ExpireBefore(stamp(), time.Duration((clock-4*rng.Float64())*float64(time.Second))); len(expired) == 0 {
				kind = "empty sweep"
			}
		case k < 15:
			kind = "fingerprint"
			i := rng.Intn(len(b.Beacons))
			sample := fingerprint.Sample{Room: b.Beacons[i].Room, At: time.Duration(op) * time.Second, Distances: map[ibeacon.BeaconID]float64{}}
			for j, bc := range b.Beacons {
				sample.Distances[bc.ID] = 2 + 3*float64((j-i)*(j-i)) + rng.Float64()
			}
			err = s.AddFingerprint(sample)
		case k < 16:
			kind = "train"
			if _, err = s.Train(10, 0.2, uint64(op)); err != nil && transport.Classify(err).Status == 409 {
				kind, err = "refused train", nil
			}
		case k < 17:
			kind = "model"
			snap := distributed
			snap.Version = 1 + rng.Intn(8)
			_, err = s.InstallModel(snap)
		case k < 18:
			kind = "lease claim"
			_, _, err = s.GrantLease(uint64(1+rng.Intn(6)), fmt.Sprintf("http://gw-%d", rng.Intn(2)))
		default:
			kind = "compaction"
			err = s.CompactWAL()
		}
		if errors.Is(err, transport.ErrStaleLeader) {
			kind, err = "fenced", nil
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", op, kind, err)
		}
		done[kind]++
		if err := diffState(stateOf(reopenCopy(t, dir, retain)), stateOf(s)); err != nil {
			t.Fatalf("op %d (%s): the crash copy diverges from the live server: %v", op, kind, err)
		}
	}
	for _, kind := range []string{"upload", "retransmit", "evict", "install", "expire", "fingerprint", "train", "model", "lease claim", "fenced", "compaction"} {
		if done[kind] == 0 {
			t.Fatalf("vacuous: no %s among %d operations (%v)", kind, ops, done)
		}
	}
	t.Logf("operations: %v", done)
}

// TestSweepBesideAResumingDevice: the TTL sweep is the one record decided
// from the state it sees. Devices fall silent past the TTL and resume,
// one upload each, while sweeps run back to back beside them. Whichever
// way each race goes, every device ends tracked with its fresh
// observation in the store, and a crash copy opens to the live state.
// Each round is a fresh server. Run it under -race.
func TestSweepBesideAResumingDevice(t *testing.T) {
	const rounds, sleepers, retain = 12, 24, 4
	const base = 1000.0
	b := building.PaperHouse()
	name := func(i int) string { return fmt.Sprintf("sleeper-%02d", i) }
	var broken []string
	var swept atomic.Int64
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		s := openDurableRetain(t, dir, retain, store.FsyncOff)
		reportAll := func(at float64, seq uint64) {
			t.Helper()
			for i := 0; i < sleepers; i++ {
				if _, err := s.Ingest(sequenced(reportNear(b, name(i), 0, at), seq)); err != nil {
					t.Fatal(err)
				}
			}
		}
		reportAll(base, 1)
		// Silent past the cutoff, they resume while the sweeps run. The
		// resumes wait for the first sweep to complete, so every round
		// has a sweep that finds them silent however the scheduler orders
		// the two goroutines (on one CPU the resumes would otherwise all
		// land first); the later sweeps race the resumes.
		stop := make(chan struct{})
		firstPass := make(chan struct{})
		var wg sync.WaitGroup
		// halt stops the sweeper however the round ends: a Fatal must
		// not leave it sweeping.
		halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
		defer halt()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; ; pass++ {
				select {
				case <-stop:
					return
				default:
				}
				expired, err := s.ExpireBefore(0, time.Duration(base+500)*time.Second)
				if pass == 0 {
					close(firstPass)
				}
				if err != nil {
					t.Error(err)
					return
				}
				swept.Add(int64(len(expired)))
			}
		}()
		<-firstPass
		reportAll(base+600, 2)
		halt()

		var why []string
		resumed := time.Duration(base+600) * time.Second
		for i := 0; i < sleepers; i++ {
			st, tracked := s.ExportDevice(name(i))
			latest, stored := s.st.Latest(name(i))
			if !tracked || st.LastAt != resumed || !stored || latest.At != resumed {
				why = append(why, fmt.Sprintf("%s is tracked %v (last %v), its latest observation %v (%v)", name(i), tracked, st.LastAt, latest.At, stored))
			}
		}
		if err := diffState(stateOf(reopenCopy(t, dir, retain)), stateOf(s)); err != nil {
			why = append(why, "the crash copy diverges: "+err.Error())
		}
		if len(why) > 0 {
			broken = append(broken, fmt.Sprintf("round %d: %s", round, strings.Join(why, "; ")))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if swept.Load() == 0 {
		t.Fatal("vacuous: no sweep expired a sleeper")
	}
	if len(broken) > 0 {
		t.Fatalf("%d of %d rounds broke:\n%s", len(broken), rounds, strings.Join(broken, "\n"))
	}
}

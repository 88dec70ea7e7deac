package bms

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// seqReport fabricates a sequenced report beside one beacon.
func seqReport(b *building.Building, device string, beaconIdx int, atSeconds float64, seq uint64) transport.Report {
	rep := reportNear(b, device, beaconIdx, atSeconds)
	rep.Seq = seq
	return rep
}

// TestIngestDedupsRetransmission pins the server half of exactly-once
// on the single-report path: a retransmitted sequenced report is
// acknowledged with the same predicted room but advances neither the
// debounce nor the store.
func TestIngestDedupsRetransmission(t *testing.T) {
	s, b := newTestServer(t)
	rep := seqReport(b, "p", 0, 1, 1)
	room1, err := s.Ingest(rep)
	if err != nil {
		t.Fatal(err)
	}
	events := len(s.Events())
	room2, err := s.Ingest(rep) // lost ack, client retransmits
	if err != nil {
		t.Fatalf("retransmission must be acknowledged, got %v", err)
	}
	if room2 != room1 {
		t.Fatalf("retransmission predicted %q, original %q", room2, room1)
	}
	if got := len(s.Events()); got != events {
		t.Fatalf("retransmission committed %d new events", got-events)
	}
	if got := len(history(s.st, "p")); got != 1 {
		t.Fatalf("retransmission stored a duplicate observation: history = %d", got)
	}
}

// TestIngestBatchDebounceNotDoubleAdvanced is the ROADMAP bug made a
// regression test: with debounce 2, delivering a one-observation batch
// twice (whole-batch retransmit after a lost ack) must NOT count as
// two consecutive observations and commit the transition early.
func TestIngestBatchDebounceNotDoubleAdvanced(t *testing.T) {
	b := building.PaperHouse()
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(b, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := []transport.Report{seqReport(b, "p", 0, 1, 1)}
	if _, err := s.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestBatch(batch); err != nil { // retransmit
		t.Fatal(err)
	}
	if evs := s.Events(); len(evs) != 0 {
		t.Fatalf("duplicate delivery advanced debounce and committed %v", evs)
	}
	// The genuine second observation commits.
	if _, err := s.IngestBatch([]transport.Report{seqReport(b, "p", 0, 3, 2)}); err != nil {
		t.Fatal(err)
	}
	if evs := s.Events(); len(evs) != 1 {
		t.Fatalf("genuine confirmation did not commit: events = %v", evs)
	}
}

// TestEvictInstallDeviceRoundTrip pins the in-process migration
// surface: evicting a device and installing it on a second server
// moves room, debounce, dwell and the dedup mark; the old server
// forgets the device entirely.
func TestEvictInstallDeviceRoundTrip(t *testing.T) {
	s1, b := newTestServer(t)
	for i := uint64(1); i <= 3; i++ {
		if _, err := s1.Ingest(seqReport(b, "p", 0, float64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	wantRoom := s1.tracker.RoomOf("p")
	wantState, _ := s1.tracker.Export("p")
	wantDwell := wantState.Dwell

	st, ok := evict(t, s1, "p")
	if !ok {
		t.Fatal("evict found no state")
	}
	if st.Epoch != 0 || st.Seq != 3 {
		t.Fatalf("evicted mark = (%d, %d), want (0, 3)", st.Epoch, st.Seq)
	}
	if occ := s1.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("old owner still reports %v", occ.Devices)
	}
	if _, ok := evict(t, s1, "p"); ok {
		t.Fatal("second evict found state again")
	}

	s2, _ := newTestServer(t)
	if err := s2.InstallDevice(0, st); err != nil {
		t.Fatal(err)
	}
	if got := s2.tracker.RoomOf("p"); got != wantRoom {
		t.Fatalf("migrated room = %q, want %q", got, wantRoom)
	}
	if got, _ := s2.tracker.Export("p"); len(got.Dwell) != len(wantDwell) {
		t.Fatalf("migrated dwell = %v, want %v", got.Dwell, wantDwell)
	}
	// The mark travelled: the in-flight retransmission of seq 3 is a
	// no-op on the new owner.
	evs := len(s2.Events())
	if _, err := s2.Ingest(seqReport(b, "p", 0, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Events()); got != evs {
		t.Fatal("retransmission ingested on the new owner despite the migrated mark")
	}
}

// TestDeviceMigrationEndpoints drives the HTTP face of migration:
// evict answers the state (404 for an unknown device), install seeds a
// second server, expire sweeps idle devices.
func TestDeviceMigrationEndpoints(t *testing.T) {
	s1, b := newTestServer(t)
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	s2, _ := newTestServer(t)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	if _, err := s1.Ingest(seqReport(b, "p", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}

	// The read-only state view answers without disturbing anything.
	resp0, err := http.Get(ts1.URL + "/api/v1/devices/p/state")
	if err != nil {
		t.Fatal(err)
	}
	var peek DeviceState
	if err := json.NewDecoder(resp0.Body).Decode(&peek); err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if peek.Device != "p" || peek.Seq != 1 {
		t.Fatalf("state peek = %+v", peek)
	}
	if occ := s1.Occupancy(); len(occ.Devices) != 1 {
		t.Fatal("read-only state view mutated the server")
	}

	// Migration rides the shard stream. An unknown device evicts to an
	// empty ok reply.
	conn1, br1, _ := upgradeStream(t, ts1)
	conn2, br2, _ := upgradeStream(t, ts2)
	evict := func(id, floor uint64, device string) (byte, []byte) {
		body := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1), id), floor)
		return shardCall(t, conn1, br1, wire.StreamEvict, 0, append(body, device...))
	}
	if status, reply := evict(1, 1, "ghost"); status != wire.StreamOK || len(reply) != 0 {
		t.Fatalf("evict of unknown device answered status %d %q, want ok and empty", status, reply)
	}

	// Evict p and install it on the second server. A retry of the evict —
	// the same number — is answered with the same state, as its lost
	// first reply would have been, for as long as the session's floor
	// keeps it; another request finds nothing held.
	status, reply := evict(2, 2, "p")
	var st DeviceState
	if err := json.Unmarshal(reply, &st); status != wire.StreamOK || err != nil {
		t.Fatalf("evict answered status %d %q (%v)", status, reply, err)
	}
	if st.Device != "p" || st.Seq != 1 {
		t.Fatalf("evicted state = %+v", st)
	}
	if status, again := evict(2, 2, "p"); status != wire.StreamOK || !bytes.Equal(again, reply) {
		t.Fatalf("the retried evict answered status %d %q, want the first answer %q", status, again, reply)
	}
	if status, other := evict(3, 2, "p"); status != wire.StreamOK || len(other) != 0 {
		t.Fatalf("a new evict of the evicted device answered status %d %q, want ok and empty", status, other)
	}
	if status, again := evict(2, 2, "p"); status != wire.StreamOK || !bytes.Equal(again, reply) {
		t.Fatalf("a retry the floor keeps answered status %d %q, want the first answer %q", status, again, reply)
	}
	if status, _ := evict(4, 4, "ghost"); status != wire.StreamOK {
		t.Fatalf("an evict raising the floor answered status %d", status)
	}
	if status, again := evict(2, 2, "p"); status != wire.StreamOK || len(again) != 0 {
		t.Fatalf("a number the floor passed answered status %d %q, want it forgotten: ok and empty", status, again)
	}
	if status, reason := shardCall(t, conn1, br1, wire.StreamEvict, 0, binary.AppendUvarint(nil, 4)); status != wire.StreamRejected {
		t.Fatalf("an evict without a device answered status %d %q, want rejected", status, reason)
	}
	body, _ := json.Marshal(st)
	if status, reply := shardCall(t, conn2, br2, wire.StreamInstall, 0, body); status != wire.StreamOK || len(reply) != 0 {
		t.Fatalf("install answered status %d %q", status, reply)
	}
	if got := s2.tracker.RoomOf("p"); got == "" {
		t.Fatal("installed device unknown on the second server")
	}

	// Expire sweeps it back out (cutoff after its only observation).
	cutoff := binary.LittleEndian.AppendUint64(nil, uint64(10*time.Second))
	status, reply = shardCall(t, conn2, br2, wire.StreamExpire, 0, cutoff)
	rd := wire.Reader{Buf: reply}
	if expired := rd.Rooms(len(reply), nil, wire.Interner{}); status != wire.StreamOK || rd.Short || len(expired) != 1 || expired[0] != "p" {
		t.Fatalf("expire answered status %d, % x, want [p]", status, reply)
	}
	if occ := s2.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("expired device still tracked: %v", occ.Devices)
	}
	// Expiry must NOT reopen the dedup window: a late retransmission of
	// the committed seq-1 report stays a no-op.
	events := len(s2.Events())
	if _, err := s2.Ingest(seqReport(b, "p", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Events()); got != events {
		t.Fatal("retransmission after TTL expiry was re-ingested — the high-water mark was dropped with the state")
	}
	if occ := s2.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("deduped retransmission resurrected the device: %v", occ.Devices)
	}
	// A genuine device restart re-enters through an epoch bump.
	rep := seqReport(b, "p", 0, 100, 1)
	rep.Epoch = 1
	if _, err := s2.Ingest(rep); err != nil {
		t.Fatal(err)
	}
	if occ := s2.Occupancy(); len(occ.Devices) != 1 {
		t.Fatalf("epoch-bumped restart did not re-enter: %v", occ.Devices)
	}
}

// evictSpy is a listener whose connections report each evict request
// as it arrives: a read that starts with the envelope of one (a stream
// carries one exchange at a time, so a request's first bytes lead a
// read).
type evictSpy struct {
	net.Listener
	evicts chan struct{}
}

func (l evictSpy) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return spiedConn{c, l.evicts}, nil
}

type spiedConn struct {
	net.Conn
	evicts chan struct{}
}

func (c spiedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 5 && p[0] == wire.StreamEvict {
		c.evicts <- struct{}{}
	}
	return n, err
}

// TestEvictMemoAnswersOnce: a retry that arrives while the first
// attempt's evict still runs waits for it and answers its state, without
// evicting again; a retry of a first attempt that failed evicts anew; and
// an answer is forgotten once its session's floor or a newer epoch
// passes it.
func TestEvictMemoAnswersOnce(t *testing.T) {
	var m evictMemo
	key := evictKey{session: 1, id: 1, device: "p"}
	var calls atomic.Int32
	running, release := make(chan struct{}), make(chan struct{})
	type outcome struct {
		st   DeviceState
		held bool
		err  error
	}
	first, retry := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		st, held, err := m.do(key, 3, 1, func() (DeviceState, bool, error) {
			calls.Add(1)
			close(running)
			<-release
			return DeviceState{Seq: 4}, true, nil
		})
		first <- outcome{st, held, err}
	}()
	<-running
	go func() {
		st, held, err := m.do(key, 3, 1, func() (DeviceState, bool, error) {
			calls.Add(1)
			return DeviceState{}, false, nil
		})
		retry <- outcome{st, held, err}
	}()
	select {
	case o := <-retry:
		close(release)
		t.Fatalf("the retry answered %+v while the first attempt's evict ran", o)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	for _, ch := range []chan outcome{first, retry} {
		if o := <-ch; o.err != nil || !o.held || o.st.Seq != 4 {
			t.Fatalf("an attempt answered %+v, want the state the first evicted", o)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the device was evicted %d times, want once", n)
	}

	failed := evictKey{session: 1, id: 2, device: "q"}
	if _, _, err := m.do(failed, 3, 1, func() (DeviceState, bool, error) { return DeviceState{}, false, errors.New("log refused") }); err == nil {
		t.Fatal("a failed evict answered no error")
	}
	if _, held, err := m.do(failed, 3, 1, func() (DeviceState, bool, error) { return DeviceState{Seq: 1}, true, nil }); err != nil || !held {
		t.Fatalf("the retry of a failed evict answered (%v, %v), want its own eviction", held, err)
	}

	other := evictKey{session: 2, id: 1, device: "r"}
	if _, _, err := m.do(other, 3, 1, func() (DeviceState, bool, error) { return DeviceState{}, false, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.do(evictKey{session: 1, id: 3, device: "s"}, 3, 3, func() (DeviceState, bool, error) { return DeviceState{}, false, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.answers[key]; ok {
		t.Fatal("the floor passed an answer the memo kept")
	}
	if _, ok := m.answers[other]; !ok {
		t.Fatal("one session's floor dropped another's answer")
	}
	if _, _, err := m.do(evictKey{session: 3, id: 1, device: "t"}, 4, 1, func() (DeviceState, bool, error) { return DeviceState{}, false, nil }); err != nil {
		t.Fatal(err)
	}
	if len(m.answers) != 1 {
		t.Fatalf("a newer epoch left %d answers, want only its own", len(m.answers))
	}
}

// TestEvictRetryWaitsOutASlowCommit: an evict whose commit outlasts the
// client's attempt timeout is retried over a new stream while the shard
// still commits it, and the client gets the state that moved out. Each
// round stalls one device's first commit behind the log's exclusive
// guard until its retry has arrived. (Which of two stalled commits the
// guard lets through first is the scheduler's choice, so the order that
// loses the state without the memo is pinned by TestEvictMemoAnswersOnce.)
func TestEvictRetryWaitsOutASlowCommit(t *testing.T) {
	b := building.PaperHouse()
	st, err := store.New(100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenDurableServer(b, st, 2, DurableConfig{Dir: t.TempDir(), Policy: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	// Room for every attempt of a round (the policy makes at most 10), so
	// the spy never blocks a server read; each round drains it.
	spy := evictSpy{Listener: ts.Listener, evicts: make(chan struct{}, 64)}
	ts.Listener = spy
	ts.Start()
	defer s.Close()
	defer ts.Close()
	defer s.Streams().Stop()
	stream, err := transport.NewStream(ts.URL, wire.StreamPath, wire.StreamProtocol, &http.Client{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	policy := transport.RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}

	for round, device := range []string{"p", "q"} {
		if _, err := s.Ingest(seqReport(b, device, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
		body := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1), uint64(round+1)), uint64(round+1))
		var reply []byte
		done := make(chan error, 1)
		func() {
			s.hold(true)
			defer s.release(true)
			go func() {
				done <- stream.Exchange(wire.StreamEvict, 0, append(body, device...), policy, func(b []byte) error {
					reply = bytes.Clone(b)
					return nil
				})
			}()
			for range 2 { // the first attempt, then its retry
				select {
				case <-spy.evicts:
				case <-time.After(10 * time.Second):
					t.Errorf("round %d: the evict was not retried", round)
					return
				}
			}
			// The retry's read is seen; give it the moment it takes to
			// reach the memo, where it waits for the stalled first. (A
			// retry that arrives later finds the answer committed, which
			// the test accepts too.)
			time.Sleep(50 * time.Millisecond)
		}()
		if err := <-done; err != nil {
			t.Fatalf("round %d: the evict failed: %v", round, err)
		}
		var got DeviceState
		if err := json.Unmarshal(reply, &got); err != nil || got.Device != device {
			t.Fatalf("round %d: the retried evict answered %q (%v), want %s's state", round, reply, err, device)
		}
		for len(spy.evicts) > 0 { // attempts past the retry
			<-spy.evicts
		}
	}
	if known := s.KnownDevices(); len(known) != 0 {
		t.Fatalf("the shard still holds %v", known)
	}
}

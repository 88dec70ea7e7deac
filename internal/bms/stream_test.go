package bms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"occusim/internal/occupancy"
	"occusim/internal/overload"
	"occusim/internal/raceflag"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// streamReplies splits what a stream loop wrote into (status, body)
// replies; anything that is not a whole reply fails the test.
func streamReplies(t testing.TB, out []byte) (statuses []byte, bodies [][]byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(out))
	for {
		var buf []byte
		status, body, err := wire.ReadStreamReply(br, &buf)
		if err == io.EOF {
			return statuses, bodies
		}
		if err != nil {
			t.Fatalf("the shard wrote %d bytes that are not replies: %v", len(out), err)
		}
		statuses, bodies = append(statuses, status), append(bodies, body)
	}
}

// FuzzShardStream is the shard end under a hostile gateway: arbitrary
// bytes where request envelopes belong. The loop must never panic, never
// allocate from an announced length, answer every envelope it takes with
// exactly one reply, apply a frame or a cold verb if and only if it
// answered ok, and apply nothing for a read, which it answers with what
// it holds — the state afterwards is what a twin reaches by taking,
// through the in-process doors, just the requests that were acknowledged,
// each reply is the twin's answer to the same request (a summary as a
// value: map order is not part of the form), and each refusal is the
// twin's: stale where the twin's fence refuses, rejected where the twin
// refuses otherwise or the body does not read.
func FuzzShardStream(f *testing.F) {
	trainer, b := newTestServer(f)
	_, frame := deviceBatch(f, b, "phone-1", 1, 4)
	_, later := deviceBatch(f, b, "phone-2", 1, 2)
	good := wire.AppendStreamRequest(nil, wire.StreamFrame, 0, frame)
	read := wire.AppendStreamRequest(nil, wire.StreamRollup, 0, nil)
	request := func(kind byte, epoch uint64, body []byte) []byte {
		return wire.AppendStreamRequest(bytes.Clone(good), kind, epoch, body)
	}
	claim := func(epoch uint64, leader string) []byte { return append(binary.AppendUvarint(nil, epoch), leader...) }
	trainServer(f, trainer, b)
	snap, _ := trainer.ModelSnapshot()
	model, _ := json.Marshal(snap)
	state, _ := json.Marshal(DeviceState{DeviceState: occupancy.DeviceState{Device: "phone-9", Room: "kitchen", Seen: true}, Epoch: 1, Seq: 4})
	cutoff := binary.LittleEndian.AppendUint64(nil, uint64(time.Hour))
	f.Add(request(wire.StreamEvents, 0, nil))
	f.Add(request(wire.StreamDevices, 0, nil))
	f.Add(request(wire.StreamEvents, 0, []byte("x")))                                                // events with a body
	f.Add(wire.AppendStreamRequest(nil, wire.StreamDevices, 0, []byte{0}))                           // devices with a body
	f.Add(wire.AppendStreamRequest(request(wire.StreamModel, 0, model), wire.StreamFrame, 0, later)) // a model, then a frame it classifies
	f.Add(request(wire.StreamModel, 0, []byte("{")))
	f.Add(wire.AppendStreamRequest(request(wire.StreamEvict, 0, []byte("phone-1")), wire.StreamEvict, 0, []byte("phone-1"))) // an evict and its retry
	moved := wire.AppendStreamRequest(request(wire.StreamExport, 0, []byte("phone-1")), wire.StreamEvict, 0, []byte("phone-1"))
	f.Add(wire.AppendStreamRequest(moved, wire.StreamExport, 0, []byte("phone-1")))                                            // a move's export and evict, then an export of what left
	f.Add(request(wire.StreamExport, 0, []byte("phone-1")))                                                                    // an export of a held device
	f.Add(wire.AppendStreamRequest(request(wire.StreamExport, 0, []byte("phone-1")), wire.StreamExport, 0, []byte("phone-1"))) // an export and its retry
	f.Add(request(wire.StreamExport, 0, []byte("nobody")))                                                                     // an export of an unknown device
	f.Add(request(wire.StreamExport, 0, nil))                                                                                  // an export without a device
	f.Add(request(wire.StreamEvict, 0, []byte("nobody")))                                                                      // an evict of nothing held
	f.Add(request(wire.StreamEvict, 0, nil))                                                                                   // an evict without a device
	f.Add(wire.AppendStreamRequest(request(wire.StreamInstall, 0, state), wire.StreamDevices, 0, nil))
	f.Add(request(wire.StreamInstall, 0, []byte(`{"device":""}`)))
	f.Add(request(wire.StreamExpire, 0, cutoff))
	f.Add(request(wire.StreamExpire, 0, cutoff[:7]))
	f.Add(wire.AppendStreamRequest(request(wire.StreamClaim, 0, claim(3, "http://gw-a")), wire.StreamClaim, 0, claim(2, "http://gw-b")))
	f.Add(wire.AppendStreamRequest(request(wire.StreamClaim, 0, claim(3, "http://gw-a")), wire.StreamEvict, 2, []byte("phone-1")))  // a stale stamp
	f.Add(wire.AppendStreamRequest(request(wire.StreamClaim, 0, claim(3, "http://gw-a")), wire.StreamExport, 2, []byte("phone-1"))) // unfenced
	f.Add(wire.AppendStreamRequest(request(wire.StreamClaim, 0, claim(3, "http://gw-a")), wire.StreamExpire, 2, cutoff))            // a stale stamp
	f.Add(wire.AppendStreamRequest(request(wire.StreamClaim, 0, claim(3, "http://gw-a")), wire.StreamInstall, 2, state))            // a stale stamp
	f.Add(wire.AppendStreamRequest(request(wire.StreamEvict, 4, []byte("phone-1")), wire.StreamEvict, 3, []byte("phone-1")))        // a retry past the fence
	f.Add(request(wire.StreamClaim, 0, []byte{0x80}))
	f.Add(request(wire.StreamClaim, 0, claim(0, "http://gw-a")))
	f.Add(good)
	f.Add(wire.AppendStreamRequest(good, wire.StreamFrame, 3, later)) // two exchanges, the second stamped
	f.Add(wire.AppendStreamRequest(wire.AppendStreamRequest(nil, wire.StreamFrame, 5, frame), wire.StreamFrame, 4, later))
	f.Add(good[:len(good)/2])                               // truncated mid-frame
	f.Add(append(good[:len(good):len(good)], "garbage"...)) // garbage after a valid frame
	f.Add(read)
	f.Add(append(append(bytes.Clone(read), good...), read...))                              // a read on each side of a frame
	f.Add(wire.AppendStreamRequest(read, wire.StreamRollup, 7, nil))                        // a stamped read
	f.Add(append([]byte{wire.StreamRollup}, good[1:]...))                                   // a read with a body
	f.Add(append([]byte{wire.StreamExport + 1}, good[1:]...))                               // an unknown kind
	f.Add(append(bytes.Clone(read), append([]byte{0}, read[1:]...)...))                     // a read, then kind 0
	f.Add(binary.LittleEndian.AppendUint32([]byte{wire.StreamFrame}, wire.MaxBodyBytes+1))  // over the limit
	f.Add(binary.LittleEndian.AppendUint32([]byte{wire.StreamRollup}, wire.MaxBodyBytes+1)) // a read over the limit
	f.Add(binary.LittleEndian.AppendUint32([]byte{wire.StreamFrame}, wire.MaxBodyBytes))    // announces 64 MiB, sends none
	f.Add(binary.LittleEndian.AppendUint32([]byte{wire.StreamFrame}, 3))                    // no room for the epoch
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0xff // fails the frame checksum
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, _ := newTestServer(t)
		twin, _ := newTestServer(t)
		var out bytes.Buffer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.serveShardStream(&out, bufio.NewReader(bytes.NewReader(data)))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("%d input bytes made the stream loop allocate %d", len(data), grew)
		}

		statuses, bodies := streamReplies(t, out.Bytes())
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		hungUp := false // on an announcement over the limit, whatever follows it
		for i, status := range statuses {
			kind, epoch, frame, err := wire.ReadStreamRequest(br, &buf)
			if status == wire.StreamTooLarge {
				if err != wire.ErrBodyTooLarge || i != len(statuses)-1 {
					t.Fatalf("reply %d of %d is too-large, the envelope read gives %v", i, len(statuses), err)
				}
				hungUp = true
				break
			}
			if err != nil {
				t.Fatalf("reply %d answers an envelope that does not read: %v", i, err)
			}
			switch kind {
			case wire.StreamRollup:
				got, err := ParseSummary(bodies[i])
				if want := twin.Summary(); err != nil || status != wire.StreamOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("reply %d to a read has status %d and reads as %+v (%v), the twin's summary is %+v", i, status, got, err, want)
				}
				continue
			case wire.StreamFrame:
				rooms, err := twin.IngestWireFrameFenced(epoch, frame)
				if (status == wire.StreamOK) != (err == nil) {
					t.Fatalf("reply %d has status %d; the in-process door says %v", i, status, err)
				}
				if err == nil && !bytes.Equal(bodies[i], wire.AppendRooms(nil, rooms)) {
					t.Fatalf("reply %d acks % x, the in-process door answers %q", i, bodies[i], rooms)
				}
				continue
			}
			want, err := coldOracle(twin, kind, epoch, frame)
			wantStatus := byte(wire.StreamOK)
			switch {
			case err == nil:
			case transport.Classify(err).Class == transport.Stale:
				wantStatus = wire.StreamStale
			default:
				wantStatus = wire.StreamRejected
			}
			if status != wantStatus || err == nil && !bytes.Equal(bodies[i], want) {
				t.Fatalf("reply %d to kind 0x%02x has status %d %q; the twin answers %q (%v)", i, kind, status, bodies[i], want, err)
			}
		}
		if _, _, _, err := wire.ReadStreamRequest(br, &buf); err == nil && !hungUp {
			t.Fatalf("the loop stopped after %d replies with a whole envelope unread", len(statuses))
		}
		if got, want := s.Occupancy(), twin.Occupancy(); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(s.Events(), twin.Events()) {
			t.Fatalf("state after the stream differs from the acknowledged frames' alone:\n%v\nvs\n%v", got, want)
		}
	})
}

// coldOracle answers a gateway's cold verb through the in-process doors
// of a twin server, the reply body the answer should come back as.
func coldOracle(twin *Server, kind byte, epoch uint64, body []byte) ([]byte, error) {
	rd := wire.Reader{Buf: body}
	switch kind {
	case wire.StreamEvents:
		return json.Marshal(eventsReply(twin.Events()))
	case wire.StreamDevices:
		return wire.AppendRooms(nil, twin.KnownDevices()), nil
	case wire.StreamModel:
		var snap ModelSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return nil, err
		}
		_, err := twin.InstallModel(snap)
		return nil, err
	case wire.StreamExport:
		if len(body) == 0 {
			return nil, errors.New("no device")
		}
		if st, held := twin.ExportDevice(string(body)); held {
			return json.Marshal(st)
		}
		return nil, nil
	case wire.StreamEvict:
		if len(body) == 0 {
			return nil, errors.New("no device")
		}
		return nil, twin.EvictDevice(epoch, string(body))
	case wire.StreamInstall:
		var st DeviceState
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, err
		}
		return nil, twin.InstallDevice(epoch, st)
	case wire.StreamExpire:
		if len(body) != 8 {
			return nil, errors.New("no cutoff")
		}
		expired, err := twin.ExpireBefore(epoch, time.Duration(rd.U64()))
		return wire.AppendRooms(nil, expired), err
	case wire.StreamClaim:
		claim := rd.Uvarint()
		if rd.Short {
			return nil, errors.New("no epoch")
		}
		granted, holder, err := twin.GrantLease(claim, string(rd.Buf))
		return append(binary.AppendUvarint(nil, granted), holder...), err
	}
	return nil, fmt.Errorf("kind 0x%02x", kind)
}

// upgradeStream dials ts and upgrades the connection by hand.
func upgradeStream(t *testing.T, ts *httptest.Server) (net.Conn, *bufio.Reader, *http.Response) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req, _ := http.NewRequest(http.MethodGet, ts.URL+wire.StreamPath, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.StreamProtocol)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatal(err)
	}
	return conn, br, resp
}

// shardCall sends one request of kind on an upgraded shard stream and
// reads its reply.
func shardCall(t *testing.T, conn net.Conn, br *bufio.Reader, kind byte, epoch uint64, body []byte) (byte, []byte) {
	t.Helper()
	if _, err := conn.Write(wire.AppendStreamRequest(nil, kind, epoch, body)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	status, reply, err := wire.ReadStreamReply(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return status, reply
}

// TestStreamDoorStatuses: every way the POST door refuses a frame has its
// stream status, carrying what the status code and headers carried.
func TestStreamDoorStatuses(t *testing.T) {
	s, b := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if _, _, err := s.GrantLease(9, "http://gw-b"); err != nil {
		t.Fatal(err)
	}
	conn, br, resp := upgradeStream(t, ts)
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != wire.StreamProtocol {
		t.Fatalf("upgrade answered %s (Upgrade: %q)", resp.Status, resp.Header.Get("Upgrade"))
	}
	exchange := func(epoch uint64, frame []byte) (byte, []byte) {
		t.Helper()
		if _, err := conn.Write(wire.AppendStreamRequest(nil, wire.StreamFrame, epoch, frame)); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		status, body, err := wire.ReadStreamReply(br, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return status, body
	}
	reports, frame := deviceBatch(t, b, "phone-1", 1, 4)

	status, body := exchange(4, frame)
	if status != wire.StreamStale || binary.LittleEndian.Uint64(body) != 9 || string(body[8:]) != "http://gw-b" {
		t.Fatalf("a deposed epoch got status %d % x, want stale with grant 9 and the holder", status, body)
	}
	status, body = exchange(9, frame[:len(frame)-1])
	if status != wire.StreamRejected || len(body) == 0 {
		t.Fatalf("a damaged frame got status %d %q, want rejected with a reason", status, body)
	}
	s.SetAdmission(overload.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 1500 * time.Millisecond})
	hold, err := s.gate.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() { // fills the queue, so the stream's frame is shed
		defer close(queued)
		if release, err := s.gate.Acquire(); err == nil {
			release()
		}
	}()
	for _, waiting := s.gate.Load(); waiting == 0; _, waiting = s.gate.Load() {
		time.Sleep(time.Millisecond)
	}
	status, body = exchange(9, frame)
	if status != wire.StreamOverload || time.Duration(binary.LittleEndian.Uint64(body)) != 1500*time.Millisecond {
		t.Fatalf("a shed frame got status %d % x, want overload with the 1.5 s hint", status, body)
	}
	hold()
	<-queued
	if occ := s.Occupancy(); len(occ.Devices) != 0 {
		t.Fatalf("refused frames left state behind: %v", occ.Devices)
	}
	status, body = exchange(9, frame)
	twin, _ := newTestServer(t)
	want, err := twin.IngestBatch(reports)
	if err != nil {
		t.Fatal(err)
	}
	if status != wire.StreamOK || !bytes.Equal(body, wire.AppendRooms(nil, want)) {
		t.Fatalf("the frame got status %d % x, want the rooms ack of %q", status, body, want)
	}

	// Over the limit: answered before a byte of it is read, then hung up on.
	if _, err := conn.Write(binary.LittleEndian.AppendUint32([]byte{wire.StreamFrame}, wire.MaxBodyBytes+1)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	status, _, err = wire.ReadStreamReply(br, &buf)
	if err != nil || status != wire.StreamTooLarge {
		t.Fatalf("an oversized announcement got status %d, %v, want too-large", status, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("the shard kept the stream open after too-large: %v", err)
	}
}

// TestStreamRouteRefusesPlainHTTP: the route speaks one protocol; anything
// else is told so over HTTP and the connection stays an HTTP connection.
func TestStreamRouteRefusesPlainHTTP(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	for name, hdr := range map[string][2]string{
		"no upgrade":     {"", ""},
		"other protocol": {"Upgrade", "websocket"},
	} {
		req := httptest.NewRequest(http.MethodGet, wire.StreamPath, nil)
		if hdr[0] != "" {
			req.Header.Set("Connection", hdr[0])
			req.Header.Set("Upgrade", hdr[1])
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var body map[string]string
		if rec.Code != http.StatusUpgradeRequired || rec.Header().Get("Upgrade") != wire.StreamProtocol ||
			json.Unmarshal(rec.Body.Bytes(), &body) != nil || body["error"] == "" {
			t.Errorf("%s: answered %d (Upgrade: %q) %s", name, rec.Code, rec.Header().Get("Upgrade"), rec.Body)
		}
	}
	if s.Streams().Open() != 0 {
		t.Fatalf("%d streams open after refusals", s.Streams().Open())
	}
}

// TestStopStreamsBetweenFrames: a drain wakes idle streams — one that
// took a frame, one that answered a read, one never used — returns only
// once every loop has exited, and leaves the route refusing new streams —
// so nothing can be acknowledged after it.
func TestStopStreamsBetweenFrames(t *testing.T) {
	s, b := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, frame := deviceBatch(t, b, "phone-1", 1, 4)
	var conns []net.Conn
	var readers []*bufio.Reader
	for i := 0; i < 3; i++ {
		conn, br, resp := upgradeStream(t, ts)
		if resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("upgrade %d answered %s", i, resp.Status)
		}
		conns, readers = append(conns, conn), append(readers, br)
	}
	// A frame through the first and a read through the second, so both
	// are used streams that went idle.
	for i, kind := range []byte{wire.StreamFrame, wire.StreamRollup} {
		body := frame
		if kind == wire.StreamRollup {
			body = nil
		}
		if _, err := conns[i].Write(wire.AppendStreamRequest(nil, kind, 0, body)); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		if status, _, err := wire.ReadStreamReply(readers[i], &buf); err != nil || status != wire.StreamOK {
			t.Fatalf("stream %d: status %d, %v", i, status, err)
		}
	}
	if s.Streams().Open() != 3 {
		t.Fatalf("%d streams open, want 3", s.Streams().Open())
	}
	stopped := make(chan struct{})
	go func() { defer close(stopped); s.Streams().Stop() }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with every stream idle")
	}
	if s.Streams().Open() != 0 {
		t.Fatalf("%d streams open after the drain", s.Streams().Open())
	}
	for i, br := range readers {
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("stream %d is not hung up after the drain: %v", i, err)
		}
	}
	if _, _, resp := upgradeStream(t, ts); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("an upgrade after the drain answered %s, want 503", resp.Status)
	}
}

// TestAllocBudgetStreamLoop: one exchange over an in-memory pipe costs
// the shard what ingestWireFrame costs and nothing more — the envelope is
// read into, and the reply built in, buffers the connection keeps.
func TestAllocBudgetStreamLoop(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	s, b := newTestServer(t)
	trainServer(t, s, b)
	const runs = 60
	var frames, envelopes [][]byte
	for i := 0; i < 2*(runs+1); i++ {
		_, frame := deviceBatch(t, b, "phone-1", uint64(1+11*i), 1<<20)
		frames, envelopes = append(frames, frame), append(envelopes, wire.AppendStreamRequest(nil, wire.StreamFrame, 0, frame))
	}
	next := 0
	sc := getScratch()
	defer sc.release()
	ingest := testing.AllocsPerRun(runs, func() {
		if _, err := s.ingestWireFrame(0, frames[next], sc); err != nil {
			t.Fatal(err)
		}
		next++
	})

	gw, shard := net.Pipe()
	defer gw.Close()
	go func() {
		defer shard.Close()
		s.serveShardStream(shard, bufio.NewReaderSize(shard, 4096))
	}()
	br := bufio.NewReaderSize(gw, 4096)
	var reply []byte
	exchange := testing.AllocsPerRun(runs, func() {
		if _, err := gw.Write(envelopes[next]); err != nil {
			t.Fatal(err)
		}
		if status, _, err := wire.ReadStreamReply(br, &reply); err != nil || status != wire.StreamOK {
			t.Fatalf("status %d, %v", status, err)
		}
		next++
	})
	t.Logf("per 11-report frame: ingestWireFrame %v, one stream exchange %v", ingest, exchange)
	if exchange > ingest {
		t.Errorf("the stream loop allocates %v times per frame, ingestWireFrame alone %v: budget 0 above it", exchange, ingest)
	}
}

package fleet_test

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
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/occupancy"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// hostileShardRT upgrades the first dial onto a canned byte string — what
// the gateway writes is dropped, what it reads is script — and refuses
// every later one, so a run is finite.
type hostileShardRT struct {
	script []byte
	dials  int
}

type scriptConn struct{ bytes.Reader }

func (*scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (*scriptConn) Close() error                { return nil }

func (rt *hostileShardRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.dials++
	if rt.dials > 1 {
		return nil, errors.New("connection refused")
	}
	conn := &scriptConn{}
	conn.Reset(rt.script)
	return &http.Response{
		StatusCode: http.StatusSwitchingProtocols, Status: "101 Switching Protocols",
		Header: http.Header{"Upgrade": {wire.StreamProtocol}}, Body: conn, Request: req,
	}, nil
}

// streamReply renders one reply envelope.
func streamReply(status byte, body []byte) []byte {
	out := append(wire.BeginStreamReply(nil, status), body...)
	wire.EndStreamReply(out)
	return out
}

// FuzzShardStream is the gateway end under a hostile shard: arbitrary
// bytes where reply envelopes belong, to each verb the gateway sends on
// the stream (the i-th nibble of plan picks call i's verb: a frame, a
// summary read, an events read, a registry read, a model, an evict, an
// install, an expiry, a lease claim or an export). No verb may panic,
// allocate from an announced length, hand back a frame's rooms other
// than exactly the rooms asked for, or fail with an error the gateway
// does not know how to classify; and none may reuse a stream whose bytes
// it could not read as a reply — the next exchange dials.
func FuzzShardStream(f *testing.F) {
	const reports = 11
	stay := make([]string, reports)
	for i := range stay {
		stay[i] = "kitchen"
	}
	ok := streamReply(wire.StreamOK, wire.AppendRooms(nil, stay))
	const (
		frames = iota
		summary
		events
		devices
		model
		evict
		install
		expire
		claim
		export
		verbs
	)
	first := func(verb int) uint32 { return uint32(verb) }
	f.Add(first(frames), ok)
	f.Add(first(frames), append(bytes.Clone(ok), ok...))
	f.Add(first(frames), append(bytes.Clone(ok), "garbage after a valid reply"...))
	f.Add(first(frames), ok[:len(ok)/2])
	f.Add(first(frames), streamReply(wire.StreamOK, wire.AppendRooms(nil, stay[:3]))) // too few rooms
	f.Add(first(frames), streamReply(wire.StreamOK, []byte{200, 1, 'x'}))             // a run past the report count
	f.Add(first(frames), streamReply(wire.StreamStale, append(binary.LittleEndian.AppendUint64(nil, 9), "http://gw-b"...)))
	f.Add(first(frames), streamReply(wire.StreamStale, []byte{9})) // no room for the epoch
	f.Add(first(frames), streamReply(wire.StreamOverload, binary.LittleEndian.AppendUint64(nil, uint64(1500*time.Millisecond))))
	f.Add(first(frames), streamReply(wire.StreamOverload, nil))
	f.Add(first(frames), streamReply(wire.StreamRejected, []byte("decode frame: wire: truncated frame")))
	f.Add(first(frames), streamReply(wire.StreamTooLarge, []byte("wire: body exceeds size limit")))
	f.Add(first(frames), streamReply(9, nil))                                        // unknown status
	f.Add(first(frames), []byte{0, 0, 0, 0})                                         // no status at all
	f.Add(first(frames), binary.LittleEndian.AppendUint32(nil, wire.MaxBodyBytes+2)) // past the request bound, none sent
	f.Add(first(frames), binary.LittleEndian.AppendUint32(nil, wire.MaxBodyBytes))   // announces 64 MiB, sends none
	sum := bms.AppendSummary(nil, occupancy.Summary{
		Devices: map[string]string{"d1": "kitchen"},
		Events:  2,
		Rooms:   map[string]occupancy.RoomSummary{"kitchen": {Occupants: 1, Tally: occupancy.Tally{Enters: 1}, Dwell: 1500 * time.Millisecond}},
	})
	rollup := streamReply(wire.StreamOK, sum)
	f.Add(first(summary), rollup)
	f.Add(first(summary), append(bytes.Clone(rollup), ok...))     // a read, then a frame
	f.Add(uint32(summary<<4), append(bytes.Clone(ok), rollup...)) // a frame, then a read
	f.Add(first(summary), ok)                                     // a frame's ack to a read
	f.Add(first(summary), streamReply(wire.StreamOK, []byte("{")))
	f.Add(first(summary), streamReply(wire.StreamOK, binary.AppendUvarint([]byte{0, 0}, 1<<40))) // 2^40 devices, none sent
	f.Add(first(summary), streamReply(wire.StreamOverload, binary.LittleEndian.AppendUint64(nil, 1)))
	f.Add(first(summary), streamReply(9, []byte("{}")))
	f.Add(first(summary), streamReply(wire.StreamOK, sum[:len(sum)/2])) // a summary cut in half
	f.Add(first(summary), rollup[:len(rollup)/2])                       // its envelope cut in half
	history := []byte(`{"events":[{"atSeconds":1,"device":"d1","kind":"enter","room":"kitchen"}]}`)
	names := wire.AppendRooms(nil, []string{"d1", "d2"})
	state := []byte(`{"device":"d1","room":"kitchen","seen":true,"epoch":1,"seq":4}`)
	grant := append(binary.AppendUvarint(nil, 3), "http://gw-a"...)
	for _, v := range []struct {
		verb  int
		reply []byte
	}{
		{events, history},
		{devices, names},
		{expire, names},
		{export, state},
		{export, nil}, // nothing held
		{evict, nil},
		{evict, state}, // a body an evict does not answer
		{claim, grant},
		{model, nil},
		{install, nil},
	} {
		good := streamReply(wire.StreamOK, v.reply)
		f.Add(first(v.verb), good)
		f.Add(first(v.verb), append(bytes.Clone(good), ok...)) // the verb, then a frame
		f.Add(first(v.verb), good[:len(good)-1])               // its envelope cut short
		if len(v.reply) > 1 {
			f.Add(first(v.verb), streamReply(wire.StreamOK, v.reply[:len(v.reply)/2])) // its body cut in half
		}
	}
	f.Add(first(events), streamReply(wire.StreamOK, []byte(`{"events":[{"atSeconds":1,"device":"d","kind":"teleport","room":"r"}]}`)))
	f.Add(first(devices), streamReply(wire.StreamOK, binary.AppendUvarint(nil, 1<<40))) // 2^40 names, none sent
	f.Add(first(expire), streamReply(wire.StreamOK, binary.AppendUvarint(nil, 1<<40)))  // 2^40 names, none sent
	f.Add(first(devices), streamReply(wire.StreamOK, append(bytes.Clone(names), 0)))    // a trailing byte
	f.Add(first(claim), streamReply(wire.StreamOK, bytes.Repeat([]byte{0xff}, 11)))     // a grant past 64 bits
	f.Add(first(claim), streamReply(wire.StreamStale, append(binary.LittleEndian.AppendUint64(nil, 9), "http://gw-b"...)))
	f.Add(first(evict), streamReply(wire.StreamStale, binary.LittleEndian.AppendUint64(nil, 9)))
	f.Add(first(evict), streamReply(wire.StreamRejected, []byte("bms: evict without device")))

	frame := bytes.Repeat([]byte{0xab}, 600)
	snap := bms.ModelSnapshot{Beacons: []string{"b"}, Model: json.RawMessage(`{}`), Version: 1}
	f.Fuzz(func(t *testing.T, plan uint32, script []byte) {
		rt := &hostileShardRT{script: script}
		hs, err := fleet.NewHTTPShard("http://shard-0.test", &http.Client{Transport: rt}, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		exchange := func(call int) error {
			var err error
			switch plan >> (4 * call) & 0xf % verbs {
			case frames:
				var rooms []string
				rooms, err = hs.IngestFrame(frame, reports)
				if err == nil && len(rooms) != reports {
					t.Fatalf("call %d: %d rooms for %d reports and no error", call, len(rooms), reports)
				}
			case summary:
				_, err = hs.Summary()
			case events:
				_, err = hs.Events()
			case devices:
				_, err = hs.Devices()
			case model:
				err = hs.InstallModel(snap)
			case export:
				_, _, err = hs.ExportDevice("d1")
			case evict:
				err = hs.EvictDevice("d1")
			case install:
				err = hs.InstallDevice(bms.DeviceState{DeviceState: occupancy.DeviceState{Device: "d1"}})
			case expire:
				_, err = hs.ExpireBefore(time.Hour)
			case claim:
				_, _, err = hs.Claim(3, "http://gw-a")
			}
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for call := 0; call < 4; call++ {
			dialled := rt.dials
			err := exchange(call)
			if err == nil {
				continue
			}
			var down *url.Error
			v := transport.Classify(err)
			switch {
			case errors.Is(err, fleet.ErrShardMisbehaved), errors.As(err, &down):
				// The stream is gone: this exchange, or the next, had to dial.
				if rt.dials == dialled {
					if err := exchange(call + 1); rt.dials == dialled {
						t.Fatalf("call %d: the stream was reused after %v", call, err)
					}
				}
				return
			case v.Class == transport.Stale, v.Class == transport.Shed, v.Class == transport.Unavailable && v.Answered:
			case v.Answered && (v.Class == transport.Rejected || v.Class == transport.TooLarge):
			default:
				t.Fatalf("call %d: an error nothing classifies: %v", call, err)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(script)) {
			t.Fatalf("%d reply bytes made the gateway allocate %d", len(script), grew)
		}
	})
}

// hijacked collects a test server's upgraded connections, so a test can
// reset streams from the shard's side.
type hijacked struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (h *hijacked) hook(c net.Conn, state http.ConnState) {
	if state == http.StateHijacked {
		h.mu.Lock()
		h.conns = append(h.conns, c)
		h.mu.Unlock()
	}
}

// reset closes every stream collected so far and reports how many.
func (h *hijacked) reset() int {
	h.mu.Lock()
	conns := h.conns
	h.conns = nil
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// counterSum adds up a counter family across its label sets.
func counterSum(m *obs.Metrics, family string) (sum float64) {
	for key, v := range m.TakeSnapshot().Counters {
		if key == family || strings.HasPrefix(key, family+"{") {
			sum += v
		}
	}
	return sum
}

// TestStreamsSurviveResetsUnderRace runs IngestFrame from several
// goroutines while the leadership stamp moves and the shard keeps cutting
// its streams. A reply must never reach the wrong caller — every call
// gets the rooms of the frame it sent or an error — and with (Epoch, Seq)
// dedup behind the retries the shard ends holding each frame exactly
// once. Run under -race this is also the pool's and the stamp's
// synchronisation test.
//
// The cuts must meet the exchanges, or the run proves nothing: each
// writer, after its first frame, waits for the cutter's first cut, and
// the cutter cuts until every writer is done. The held run starts the
// cutter only once every writer is parked on that cut or gone: the
// schedule of a starved cutter, under which a drive that leaves the
// order to the scheduler cuts only streams nobody uses again. A run not
// done after two minutes fails, naming each writer's frame and try and
// logging every goroutine's stack; so does a writer still waiting for the
// first cut then.
func TestStreamsSurviveResetsUnderRace(t *testing.T) {
	t.Run("free", func(t *testing.T) { streamsSurviveResets(t, false) })
	t.Run("held", func(t *testing.T) { streamsSurviveResets(t, true) })
}

func streamsSurviveResets(t *testing.T, held bool) {
	b := building.PaperHouse()
	srv, twin := newServer(t, b), newServer(t, b)
	ts := httptest.NewUnstartedServer(srv.Handler())
	var cut hijacked
	ts.Config.ConnState = cut.hook
	ts.Start()
	defer ts.Close()
	defer srv.Close()

	hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New([]fleet.Shard{hs}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	gw.Instrument(met)

	// A frame is one device's whole history, 11 reports beside its
	// writer's beacon: a reply that strayed to another caller names the
	// wrong room, and a frame that landed twice doubles a dwell. (One
	// device per frame on purpose: a retry can overtake its own cut-off
	// original inside the shard, and frames of one device do not commute
	// in the tracker, which is not this leg's to fix.)
	const writers, frames = 4, 40
	type sent struct {
		frame []byte
		rooms []string
	}
	plan := make([][]sent, writers)
	for w := range plan {
		for k := 0; k < frames; k++ {
			reports := make([]transport.Report, 11)
			for i := range reports {
				seq := uint64(1 + i)
				reports[i] = hopReport(b, fmt.Sprintf("w%d-%02d", w, k), (2*w)%len(b.Beacons), float64(2*seq), seq)
			}
			wb := new(wire.Batch)
			if err := transport.EncodeReports(wb, reports); err != nil {
				t.Fatal(err)
			}
			frame := wire.AppendFrame(nil, wb)
			rooms, err := twin.IngestWireFrameFenced(0, frame)
			if err != nil {
				t.Fatal(err)
			}
			plan[w] = append(plan[w], sent{frame, rooms})
		}
	}

	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(writers)
	firstCut := make(chan struct{})
	var cutOnce sync.Once
	cutFirst := func() { cutOnce.Do(func() { close(firstCut) }) }
	var settled sync.WaitGroup // each writer parked on the first cut, or gone
	settled.Add(writers)

	// Where each writer stands, for the failure a stalled run ends in.
	frameAt, tryAt := make([]atomic.Int64, writers), make([]atomic.Int64, writers)
	var quit atomic.Bool
	deadline := time.Now().Add(2 * time.Minute)
	stalled := func(where string) {
		quit.Store(true)
		buf := make([]byte, 1<<20)
		t.Logf("every goroutine at the deadline:\n%s", buf[:runtime.Stack(buf, true)])
		var at []string
		for w := range frameAt {
			at = append(at, fmt.Sprintf("writer %d at frame %d try %d", w, frameAt[w].Load(), tryAt[w].Load()))
		}
		cutFirst()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
		}
		t.Fatalf("%s: not done after two minutes; %s", where, strings.Join(at, ", "))
	}

	for w := range plan {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			var park sync.Once
			defer park.Do(settled.Done)
			for k, s := range plan[w] {
				frameAt[w].Store(int64(k))
				if k == 1 {
					park.Do(settled.Done)
					select {
					case <-firstCut:
					case <-time.After(time.Until(deadline)):
						buf := make([]byte, 1<<20)
						t.Errorf("writer %d: no stream was cut in two minutes; every goroutine:\n%s", w, buf[:runtime.Stack(buf, true)])
						return
					}
				}
				for try := 0; ; try++ {
					tryAt[w].Store(int64(try))
					if quit.Load() {
						return
					}
					rooms, err := hs.IngestFrame(s.frame, 11)
					if err == nil {
						if !reflect.DeepEqual(rooms, s.rooms) {
							t.Errorf("writer %d frame %d was answered %q, its own rooms are %q", w, k, rooms, s.rooms)
						}
						break
					}
					// A cut stream past the retry budget, or a stamp that
					// moved on under the call: send it again.
					var down *url.Error
					if try > 200 || !(errors.As(err, &down) || errors.Is(err, transport.ErrStaleLeader)) {
						t.Errorf("writer %d frame %d: %v", w, k, err)
						return
					}
				}
			}
		}(w)
	}
	if held {
		parked := make(chan struct{})
		go func() { settled.Wait(); close(parked) }()
		select {
		case <-parked:
		case <-time.After(time.Until(deadline)):
			stalled("the held run's writers never all parked on the first cut")
		}
	}
	resets := 0
	for epoch := uint64(1); ; epoch++ {
		hs.StampEpoch(epoch)
		resets += cut.reset()
		if running.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			stalled(fmt.Sprintf("the cutter, %d streams cut", resets))
		}
		if resets == 0 {
			// No stream was open yet. Do not sleep through the whole run
			// (a few ms) before the first cut: look again at once.
			runtime.Gosched()
			continue
		}
		cutFirst()
		time.Sleep(500 * time.Microsecond)
	}
	wg.Wait()

	if got, want := srv.Occupancy(), twin.Occupancy(); !reflect.DeepEqual(got, want) {
		t.Fatalf("occupancy after the run %v, one clean pass gives %v", got, want)
	}
	if got, want := len(srv.Events()), len(twin.Events()); got != want {
		t.Fatalf("%d events after the run, one clean pass gives %d", got, want)
	}
	if !reflect.DeepEqual(srv.DwellTotals(), twin.DwellTotals()) {
		t.Fatalf("dwell after the run is %v, one clean pass gives %v: a frame landed twice", srv.DwellTotals(), twin.DwellTotals())
	}
	counted, dials := counterSum(met, "fleet_stream_resets_total"), counterSum(met, "fleet_stream_dials_total")
	if resets == 0 || counted == 0 || dials < 2 {
		t.Fatalf("vacuous: the shard cut %d streams, the gateway counted %v resets and %v dials", resets, counted, dials)
	}
	recorded := 0
	for _, e := range met.TakeSnapshot().Events {
		if e.Kind == obs.EventStreamReset {
			recorded++
		}
	}
	if recorded == 0 {
		t.Fatalf("%v resets counted, none in the flight recorder", counted)
	}
}

// TestStreamDeadlineClosesTheStream: a shard that takes a frame and never
// answers costs one attempt deadline, as a POST did, and the stream that
// waited is closed, not pooled — the late reply, if it ever comes, has no
// one to be misread by.
func TestStreamDeadlineClosesTheStream(t *testing.T) {
	b := building.PaperHouse()
	srv := newServer(t, b)
	var stall atomic.Bool
	release := make(chan struct{})
	var upgrades atomic.Int64
	next := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.StreamPath {
			upgrades.Add(1)
			if stall.Load() {
				conn, _, err := http.NewResponseController(w).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				defer conn.Close()
				_, _ = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.StreamProtocol+"\r\n\r\n")
				<-release // reads nothing, answers nothing
				return
			}
		}
		next.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer srv.Close()
	defer close(release)

	hs, err := fleet.NewHTTPShard(ts.URL, &http.Client{Timeout: 50 * time.Millisecond}, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	wb := new(wire.Batch)
	if err := transport.EncodeReports(wb, []transport.Report{hopReport(b, "d1", 0, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	frame := wire.AppendFrame(nil, wb)

	stall.Store(true)
	start := time.Now()
	_, err = hs.IngestFrame(frame, 1)
	var down *url.Error
	if !errors.As(err, &down) || !down.Timeout() {
		t.Fatalf("a silent shard gave %v, want a timeout", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("the 50 ms attempt deadline took %v", took)
	}
	stall.Store(false)
	if rooms, err := hs.IngestFrame(frame, 1); err != nil || len(rooms) != 1 {
		t.Fatalf("after the deadline: %q, %v", rooms, err)
	}
	if upgrades.Load() != 2 {
		t.Fatalf("%d upgrades: the stream that timed out must be replaced, and only it", upgrades.Load())
	}
}

// heldConn holds the first reply its shard writes after the upgrade
// until release closes, so that exchange stays in flight inside the
// shard: the frame applied, its acknowledgement not yet sent.
type heldConn struct {
	net.Conn
	writes           int
	holding, release chan struct{}
}

func (c *heldConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes == 2 { // the first is the 101
		close(c.holding)
		<-c.release
	}
	return c.Conn.Write(p)
}

// holdFirstStream hands the first stream the shard upgrades a heldConn.
type holdFirstStream struct {
	http.ResponseWriter
	conn *heldConn
}

func (w holdFirstStream) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	conn, brw, err := http.NewResponseController(w.ResponseWriter).Hijack()
	w.conn.Conn = conn
	return w.conn, brw, err
}

// TestReadNeverWaitsBehindAFrame: a federated read on an HTTPShard whose
// one stream is mid-exchange inside the shard is answered meanwhile, on
// a stream of its own, and reads the frame the held exchange applied.
func TestReadNeverWaitsBehindAFrame(t *testing.T) {
	b := building.PaperHouse()
	srv := newServer(t, b)
	held := &heldConn{holding: make(chan struct{}), release: make(chan struct{})}
	var upgrades atomic.Int64
	next := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.StreamPath && upgrades.Add(1) == 1 {
			w = holdFirstStream{w, held}
		}
		next.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer srv.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(held.release) }) }
	defer release()
	hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Two reports from one beacon: enough for the tracker to place d1.
	frame := plainFrame(t, []transport.Report{hopReport(b, "d1", 0, 2, 1), hopReport(b, "d1", 0, 4, 2)})
	ingested := make(chan error, 1)
	go func() {
		_, err := hs.IngestFrame(frame, 2)
		ingested <- err
	}()
	<-held.holding

	read := make(chan error, 1)
	var sum occupancy.Summary
	go func() {
		var err error
		sum, err = hs.Summary()
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil || len(sum.Devices) != 1 {
			t.Fatalf("a read beside the held frame: %v devices, %v", sum.Devices, err)
		}
		select {
		case err := <-ingested:
			t.Fatalf("the read returned only after the held frame's exchange ended (%v)", err)
		default:
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the read waited behind the frame held inside the shard")
	}
	release()
	if err := <-ingested; err != nil {
		t.Fatalf("the held frame, released: %v", err)
	}
	if upgrades.Load() != 2 {
		t.Fatalf("%d upgrades, want 2: the frame's stream and the read's", upgrades.Load())
	}
}

// TestReadRedialsAStreamClosedIdle: a read whose pooled stream the shard
// closed while it idled redials once, without spending retry budget (it
// has none here), and is answered.
func TestReadRedialsAStreamClosedIdle(t *testing.T) {
	b := building.PaperHouse()
	srv := newServer(t, b)
	var upgrades atomic.Int64
	next := srv.Handler()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.StreamPath {
			upgrades.Add(1)
		}
		next.ServeHTTP(w, r)
	}))
	var cut hijacked
	ts.Config.ConnState = cut.hook
	ts.Start()
	defer ts.Close()
	defer srv.Close()
	hs, err := fleet.NewHTTPShard(ts.URL, nil, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingestFrame(t, hs, []transport.Report{hopReport(b, "d1", 0, 2, 1), hopReport(b, "d1", 0, 4, 2)}); err != nil {
		t.Fatal(err)
	}
	if n := cut.reset(); n != 1 {
		t.Fatalf("the shard closed %d idle streams, want the one", n)
	}
	sum, err := hs.Summary()
	if err != nil || len(sum.Devices) != 1 {
		t.Fatalf("a read after the idle stream closed: %v devices, %v", sum.Devices, err)
	}
	if upgrades.Load() != 2 {
		t.Fatalf("%d upgrades, want 2: the closed stream and one redial", upgrades.Load())
	}
}

// TestUploadStreamRefusesReads: a device's upload stream, at a box and at
// a gateway, carries frames only; a rollup read there is a rejected
// request, answered, not a hang-up.
func TestUploadStreamRefusesReads(t *testing.T) {
	b := building.PaperHouse()
	srv := newServer(t, b)
	defer srv.Close()
	shard, err := fleet.NewLocalShard("only", srv)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New([]fleet.Shard{shard}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]http.Handler{"box": srv.Handler(), "gateway": fleet.Handler(gw, fleet.HandlerOptions{})} {
		status, reason := streamExchange(t, h, wire.UplinkPath, wire.UplinkProtocol, wire.StreamRollup, nil)
		if status != wire.StreamRejected || !strings.Contains(reason, "frames only") {
			t.Errorf("%s: a read on the upload stream got status %d %q, want rejected", name, status, reason)
		}
	}
}

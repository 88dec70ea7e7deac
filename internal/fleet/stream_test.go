package fleet_test

import (
	"bytes"
	"encoding/binary"
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

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
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
// bytes where reply envelopes belong. IngestFrame must never panic, never
// allocate from an announced length, hand back either exactly the rooms
// asked for or an error the gateway knows how to classify, and never
// reuse a stream whose bytes it could not read as a reply — the next
// exchange dials.
func FuzzShardStream(f *testing.F) {
	const reports = 11
	stay := make([]string, reports)
	for i := range stay {
		stay[i] = "kitchen"
	}
	ok := streamReply(wire.StreamOK, wire.AppendRooms(nil, stay))
	f.Add(ok)
	f.Add(append(bytes.Clone(ok), ok...))
	f.Add(append(bytes.Clone(ok), "garbage after a valid reply"...))
	f.Add(ok[:len(ok)/2])
	f.Add(streamReply(wire.StreamOK, wire.AppendRooms(nil, stay[:3]))) // too few rooms
	f.Add(streamReply(wire.StreamOK, []byte{200, 1, 'x'}))             // a run past the report count
	f.Add(streamReply(wire.StreamStale, append(binary.LittleEndian.AppendUint64(nil, 9), "http://gw-b"...)))
	f.Add(streamReply(wire.StreamStale, []byte{9})) // no room for the epoch
	f.Add(streamReply(wire.StreamOverload, binary.LittleEndian.AppendUint64(nil, uint64(1500*time.Millisecond))))
	f.Add(streamReply(wire.StreamOverload, nil))
	f.Add(streamReply(wire.StreamRejected, []byte("decode frame: wire: truncated frame")))
	f.Add(streamReply(wire.StreamTooLarge, []byte("wire: body exceeds size limit")))
	f.Add(streamReply(9, nil))                                        // unknown status
	f.Add([]byte{0, 0, 0, 0})                                         // no status at all
	f.Add(binary.LittleEndian.AppendUint32(nil, wire.MaxBodyBytes+2)) // longer than its bound
	f.Add(binary.LittleEndian.AppendUint32(nil, wire.MaxBodyBytes))   // announces 64 MiB, sends none

	frame := bytes.Repeat([]byte{0xab}, 600)
	f.Fuzz(func(t *testing.T, script []byte) {
		rt := &hostileShardRT{script: script}
		hs, err := fleet.NewHTTPShard("http://shard-0.test", &http.Client{Transport: rt}, transport.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for call := 0; call < 4; call++ {
			dialled := rt.dials
			rooms, err := hs.IngestFrame(frame, reports)
			if err == nil {
				if len(rooms) != reports {
					t.Fatalf("call %d: %d rooms for %d reports and no error", call, len(rooms), reports)
				}
				continue
			}
			var down *url.Error
			v := transport.Classify(err)
			switch {
			case errors.Is(err, fleet.ErrShardMisbehaved), errors.As(err, &down):
				// The stream is gone: this exchange, or the next, had to dial.
				if rt.dials == dialled {
					if _, err := hs.IngestFrame(frame, reports); rt.dials == dialled {
						t.Fatalf("call %d: the stream was reused after %v", call, err)
					}
				}
				return
			case v.Class == transport.Stale, v.Class == transport.Shed, v.Class == transport.Unavailable && v.Answered:
			case v.Answered && (v.Code == http.StatusBadRequest || v.Code == http.StatusRequestEntityTooLarge):
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
func TestStreamsSurviveResetsUnderRace(t *testing.T) {
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
	for w := range plan {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			for k, s := range plan[w] {
				for try := 0; ; try++ {
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
	resets := 0
	for epoch := uint64(1); running.Load() > 0; epoch++ {
		hs.StampEpoch(epoch)
		resets += cut.reset()
		if resets == 0 {
			// No stream was open yet. Do not sleep through the whole run
			// (a few ms) before the first cut: look again at once.
			runtime.Gosched()
			continue
		}
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

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/geom"
	"occusim/internal/scenario"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// lockedBuffer collects the log of the assemblies under test.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// captureLog routes the process log into a buffer for the test's length.
func captureLog(t *testing.T) *lockedBuffer {
	t.Helper()
	out := new(lockedBuffer)
	log.SetOutput(out)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return out
}

// assembly is one bmsd brought up in process through the stages main
// runs: parseFlags → openShards → face → serve, on a listener the test
// owns.
type assembly struct {
	url  string
	pool *fleet.LocalPool
	sig  chan os.Signal
	done chan error
	stop func()
}

func boot(t *testing.T, args ...string) *assembly {
	t.Helper()
	return bootWrapped(t, nil, args...)
}

// bootWrapped is boot with the face's handler wrapped, when wrap is set.
func bootWrapped(t *testing.T, wrap func(http.Handler) http.Handler, args ...string) *assembly {
	t.Helper()
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatalf("bmsd %v refused: %v", args, err)
	}
	shards, pool, err := openShards(o)
	if err != nil {
		t.Fatal(err)
	}
	handler, devices, stop, err := face(o, shards, pool)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// serve gets the channel itself: term clears a.sig, maybe before this
	// goroutine first runs.
	sig := make(chan os.Signal, 1)
	a := &assembly{url: "http://" + ln.Addr().String(), pool: pool, sig: sig, done: make(chan error, 1), stop: stop}
	go func() { a.done <- serve(o, ln, handler, devices, pool, sig) }()
	t.Cleanup(func() { a.term(t) })
	return a
}

// term delivers the signal and waits for the drain; calling it again is
// a no-op.
func (a *assembly) term(t *testing.T) {
	t.Helper()
	if a.sig == nil {
		return
	}
	a.sig <- os.Interrupt
	a.sig = nil
	if err := <-a.done; err != nil {
		t.Errorf("serve: %v", err)
	}
	a.stop()
}

func do(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	code, _, payload := exchange(t, method, url, "application/json", data)
	return code, payload
}

func exchange(t *testing.T, method, url, contentType string, body []byte) (code int, answeredAs string, payload []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if payload, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), payload
}

func mustGet(t *testing.T, url string, into any) {
	t.Helper()
	code, payload := do(t, http.MethodGet, url, nil)
	if code != http.StatusOK {
		t.Fatalf("GET %s answered %d: %s", url, code, payload)
	}
	if err := json.Unmarshal(payload, into); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, payload)
	}
}

// distancesAt is what a handset at p ranges every beacon of b at.
func distancesAt(b *building.Building, p geom.Point) map[string]float64 {
	out := map[string]float64{}
	for _, bc := range b.Beacons {
		out[bc.ID.String()] = max(p.Dist(bc.Pos), 0.1)
	}
	return out
}

func roomPoint(room building.Room, fx, fy float64) geom.Point {
	return geom.Pt(room.Bounds.Min.X+fx*room.Bounds.Width(), room.Bounds.Min.Y+fy*room.Bounds.Height())
}

// train walks a collection round over the REST API and fits the model.
func train(t *testing.T, url string, b *building.Building) (version int) {
	t.Helper()
	for _, room := range b.Rooms {
		for k := 0; k < 6; k++ {
			p := roomPoint(room, 0.25+0.5*float64(k%2), 0.25+0.25*float64(k%3))
			code, payload := do(t, http.MethodPost, url+"/api/v1/fingerprints", map[string]any{"room": room.Name, "distances": distancesAt(b, p)})
			if code != http.StatusOK {
				t.Fatalf("fingerprint answered %d: %s", code, payload)
			}
		}
	}
	code, payload := do(t, http.MethodPost, url+"/api/v1/train", map[string]any{"c": 10, "gamma": 0.03, "seed": 42})
	var res struct {
		ModelVersion int `json:"modelVersion"`
	}
	if err := json.Unmarshal(payload, &res); code != http.StatusOK || err != nil || res.ModelVersion == 0 {
		t.Fatalf("train answered %d (%v): %s", code, err, payload)
	}
	return res.ModelVersion
}

// report is one upload of device from the middle of room.
func report(b *building.Building, device string, room building.Room, seq uint64) transport.Report {
	r := transport.Report{Device: device, AtSeconds: float64(seq), Epoch: 1, Seq: seq}
	for id, d := range distancesAt(b, roomPoint(room, 0.5, 0.5)) {
		r.Beacons = append(r.Beacons, transport.BeaconReport{ID: id, Distance: d, RSSI: -60 - 2*d})
	}
	return r
}

// TestTrainedModelSurvivesRestarts: training state has one persistence
// path, the WAL. A trained durable bmsd, drained and reopened twice,
// classifies with the fitted model before any /train, reports the model
// version it was trained at, and boots without appending a model record.
// (Before, every boot retrained from the restored fingerprints: the
// version climbed 1 → 2 → 3 and each boot logged a fresh model.)
func TestTrainedModelSurvivesRestarts(t *testing.T) {
	out := captureLog(t)
	b := building.PaperHouse()
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-fsync", "off"}
	kitchen := b.Rooms[len(b.Rooms)-1]

	a := boot(t, args...)
	trained := train(t, a.url, b)
	want, err := a.pool.Servers[0].Ingest(report(b, "walker", kitchen, 1))
	if err != nil || want != kitchen.Name {
		t.Fatalf("the trained server places the walker in %q (%v), want %q", want, err, kitchen.Name)
	}
	walPath := filepath.Join(dir, "shard-0", "wal.log")
	if wal, err := os.ReadFile(walPath); err != nil || !bytes.Contains(wal, []byte(`"t":"model"`)) {
		t.Fatalf("training logged no model record (%v): the check below is vacuous", err)
	}
	a.term(t)

	for n := 2; n <= 3; n++ {
		a = boot(t, args...)
		if _, ok := a.pool.Servers[0].ModelSnapshot(); !ok {
			t.Fatalf("boot %d classifies by proximity before any /train", n)
		}
		var model struct {
			Version int `json:"version"`
		}
		mustGet(t, a.url+"/api/v1/model", &model)
		if model.Version != trained {
			t.Fatalf("boot %d reports model version %d, trained at %d", n, model.Version, trained)
		}
		code, payload := do(t, http.MethodPost, a.url+"/api/v1/observations", report(b, "walker", kitchen, uint64(n)))
		if code != http.StatusOK || !strings.Contains(string(payload), kitchen.Name) {
			t.Fatalf("boot %d's first upload answered %d: %s", n, code, payload)
		}
		wal, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(wal) == 0 || bytes.Contains(wal, []byte(`"t":"model"`)) {
			t.Fatalf("boot %d: the log holds %d bytes and must hold the upload but no model record:\n%q", n, len(wal), wal)
		}
		a.term(t)
	}

	// Every drain kept the order the drills read from the log.
	logged := out.String()
	if n := strings.Count(logged, "durable state compacted"); n != 3 {
		t.Fatalf("%d of 3 drains compacted:\n%s", n, logged)
	}
	for _, drain := range strings.Split(logged, "durable state compacted")[:3] {
		if !strings.Contains(drain, "streams stopped between frames: 0 open stream(s)") {
			t.Fatalf("a drain compacted before it stopped its streams:\n%s", logged)
		}
	}
}

// TestSnapshotFlagIsGone: the second persistence path — and with it the
// invocation that could not boot twice — cannot be asked for.
func TestSnapshotFlagIsGone(t *testing.T) {
	var stderr bytes.Buffer
	if code := realMain([]string{"-data-dir", t.TempDir(), "-snapshot", "s.json"}, &stderr, nil); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -snapshot") {
		t.Fatalf("stderr does not call -snapshot unknown:\n%s", stderr.String())
	}
}

// TestEveryAssemblyServes: the three assemblies the one pipeline builds —
// a lone shard, an in-process fleet, a leased gateway over remote shards
// — each answer health, take a JSON and a wire upload, and serve
// occupancy and the rollup of both.
func TestEveryAssemblyServes(t *testing.T) {
	out := captureLog(t)
	b := building.PaperHouse()
	remote := func() string {
		o, err := parseFlags(nil, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		shards, pool, err := openShards(o)
		if err != nil {
			t.Fatal(err)
		}
		handler, _, _, err := face(o, shards, pool)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(handler)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	for name, args := range map[string][]string{
		"lone shard":       nil,
		"in-process fleet": {"-shards", "3", "-skew-window", "1h"},
		"leased gateway":   {"-shard-urls", remote() + "," + remote(), "-self", "http://gateway-a", "-lease-ttl", "1s"},
	} {
		t.Run(name, func(t *testing.T) {
			a := boot(t, args...)
			var health struct {
				Status string `json:"status"`
			}
			mustGet(t, a.url+"/api/v1/health", &health)
			if health.Status != "ok" {
				t.Fatalf("health is %q", health.Status)
			}
			batch := func(device string) []transport.Report {
				return []transport.Report{report(b, device, b.Rooms[0], 1), report(b, device, b.Rooms[0], 2)}
			}
			code, payload := do(t, http.MethodPost, a.url+"/api/v1/observations:batch", batch("phone-json"))
			if code != http.StatusOK || !strings.Contains(string(payload), `"rooms":["`) {
				t.Fatalf("JSON upload answered %d: %s", code, payload)
			}
			wb := wire.GetBatch()
			defer wire.PutBatch(wb)
			if err := transport.EncodeReports(wb, batch("phone-wire")); err != nil {
				t.Fatal(err)
			}
			code, as, payload := exchange(t, http.MethodPost, a.url+"/api/v1/observations:batch", wire.ContentType, wire.AppendFrame(nil, wb))
			if code != http.StatusOK || as != wire.ContentType {
				t.Fatalf("wire upload answered %d as %q: %s", code, as, payload)
			}
			var occ struct {
				Devices map[string]string `json:"devices"`
			}
			mustGet(t, a.url+"/api/v1/occupancy", &occ)
			var rollup struct {
				Devices int `json:"devices"`
				Events  int `json:"events"`
			}
			mustGet(t, a.url+"/api/v1/rollup", &rollup)
			if len(occ.Devices) != 2 || rollup.Devices != 2 || rollup.Events != 2 {
				t.Fatalf("after two devices' uploads occupancy lists %v and the rollup counts %+v", occ.Devices, rollup)
			}
			a.term(t)
		})
	}
	// The gateway over remote shards drains like everything else.
	if n := strings.Count(out.String(), "bmsd: drained cleanly"); n != 3 {
		t.Fatalf("%d of 3 assemblies logged a counted drain:\n%s", n, out.String())
	}
}

// TestFlagsAreToldNotIgnored: a flag set for an object the invocation
// does not build exits 2 naming that flag and the one that decides, a
// flag bmsd no longer has exits 2 naming it; the invocations cmd/loadgen
// spawns are accepted.
func TestFlagsAreToldNotIgnored(t *testing.T) {
	for _, tc := range []struct {
		args  string
		names []string
	}{
		{"-skew-window 1s", []string{"-skew-window", "-shards"}},
		{"-shards 1 -skew-window 3s", []string{"-skew-window", "-shard-urls"}},
		{"-residue-ttl 1m", []string{"-residue-ttl", "-shards", "-self"}},
		{"-shards 4 -breaker-threshold 3", []string{"-breaker-threshold"}},
		{"-shard-urls http://s1 -plan campus", []string{"-plan", "-shard-urls"}},
		{"-shard-urls http://s1 -shards 2", []string{"-shards", "-shard-urls"}},
		{"-shard-urls http://s1 -debounce 3", []string{"-debounce", "-shard-urls"}},
		{"-shard-urls http://s1 -retain 10", []string{"-retain", "-shard-urls"}},
		{"-shard-urls http://s1 -data-dir d", []string{"-data-dir", "-shard-urls"}},
		{"-shard-urls http://s1 -fsync off", []string{"-fsync", "-shard-urls"}},
		{"-fsync off", []string{"-fsync", "-data-dir"}},
		{"-shards 2 -peer http://gw2", []string{"-peer", "-self"}},
		{"-shard-urls http://s1 -standby", []string{"-standby", "-self"}},
		{"-shard-urls http://s1 -lease-ttl 1s", []string{"-lease-ttl", "-self"}},
		{"-shard-urls http://s1 -self http://gw1 -residue-ttl 1m", []string{"-residue-ttl", "-self"}},
	} {
		var stderr bytes.Buffer
		if code := realMain(strings.Fields(tc.args), &stderr, nil); code != 2 {
			t.Errorf("bmsd %s: exit status %d, want 2", tc.args, code)
		}
		for _, name := range tc.names {
			if !strings.Contains(stderr.String(), name) {
				t.Errorf("bmsd %s: the refusal does not name %s: %s", tc.args, name, stderr.String())
			}
		}
	}
	for _, args := range []string{
		// cmd/loadgen's shard and gateway procs (rig.go openProcs, openPair).
		"-addr 127.0.0.1:0 -plan paper-house -shards 1 -debounce 2 -retain 1000 -data-dir d -fsync batch",
		"-addr 127.0.0.1:0 -shard-urls http://s1,http://s2,http://s3 -self http://gw1 -peer http://gw2 -lease-ttl 900ms -standby",
		"-shards 4 -skew-window 1h -residue-ttl 1m",
		"-shard-urls http://s1 -residue-ttl 1m",
		"-shards 2 -self http://gw1 -peer http://gw2",
	} {
		if _, err := parseFlags(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("bmsd %s refused: %v", args, err)
		}
	}
}

// TestDrainStopsDeviceStreams: a gateway over in-process durable shards
// drains while a device uploads on its upload stream, which
// http.Server.Shutdown does not wait for. The drain stops the stream
// between frames before the shards' final compaction: no reply leaves
// the gateway once it logged the streams stopped, and every report a
// reply acknowledged — and nothing else — is in the state the shards
// recover at the next boot.
func TestDrainStopsDeviceStreams(t *testing.T) {
	out := captureLog(t)
	b := building.PaperHouse()
	const seed = 7
	args := []string{"-shards", "2", "-data-dir", t.TempDir(), "-fsync", "batch"}

	// Every write on a hijacked connection — the upgrade's 101, then one
	// reply per frame — is checked against the log as it happens.
	var replies, late atomic.Int64
	spy := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(&hijackSpy{ResponseWriter: w, write: func() {
				replies.Add(1)
				if strings.Contains(out.String(), "streams stopped between frames") {
					late.Add(1)
				}
			}}, r)
		})
	}
	a := bootWrapped(t, spy, args...)
	for _, srv := range a.pool.Servers {
		if err := experiments.TrainCrowdModel(srv, b, seed); err != nil {
			t.Fatal(err)
		}
	}

	// Four-report uploads, one device after another, each acknowledged
	// before the next is sent; the first that fails ends the device's run.
	const reports = 4000 // per device: far more than the drain leaves time for
	streams, _, _ := experiments.SynthCrowdStreams(b, 6, reports, seed)
	seq := transport.NewSequencer(1)
	var uploads [][]transport.Report
	for from := 0; from < reports; from += 4 {
		for d := range streams {
			for i := from; i < from+4; i++ {
				seq.Stamp(&streams[d][i])
			}
			uploads = append(uploads, streams[d][from:from+4])
		}
	}
	up := &transport.HTTPUplink{BaseURL: a.url, Codec: transport.CodecBinary}
	acked := make(chan int, 1)
	var sent atomic.Int64
	var last error
	go func() {
		n := 0
		for ; n < len(uploads); n++ {
			if last = up.SendBatch(uploads[n]); last != nil {
				break
			}
			sent.Add(1)
		}
		acked <- n
	}()
	for sent.Load() < 40 {
		select {
		case n := <-acked:
			t.Fatalf("the device stopped after %d uploads, before the drain: %v", n, last)
		case <-time.After(time.Millisecond):
		}
	}
	a.term(t)
	n := <-acked
	if n == len(uploads) {
		t.Fatal("vacuous: every upload was acknowledged before the drain")
	}
	if late.Load() != 0 || replies.Load() < 40 {
		t.Fatalf("%d of %d writes on the upload stream came after the streams were logged stopped", late.Load(), replies.Load())
	}
	logged := out.String()
	var inflight, open int
	if i := strings.Index(logged, "draining "); i < 0 {
		t.Fatalf("no drain logged:\n%s", logged)
	} else if _, err := fmt.Sscanf(logged[i:], "draining %d in-flight request(s) and %d open stream(s)", &inflight, &open); err != nil || open < 1 {
		t.Fatalf("the drain began with %d open stream(s) (%v): vacuous\n%s", open, err, logged)
	}
	stopped, compacted := strings.Index(logged, "streams stopped between frames: 0 open stream(s)"), strings.Index(logged, "durable state compacted")
	if stopped < 0 || compacted < stopped {
		t.Fatalf("the drain did not stop the streams before it compacted:\n%s", logged)
	}

	// What the shards recover is exactly what was acknowledged.
	a = boot(t, args...)
	gw, err := fleet.New(a.pool.Shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	honest := make([][]transport.Report, len(streams))
	for k, u := range uploads[:n] {
		honest[k%len(streams)] = append(honest[k%len(streams)], u...)
	}
	ref, err := scenario.Reference(b, honest, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.VerifyExact(gw, ref); err != nil {
		t.Fatalf("after %d acknowledged uploads: %v", n, err)
	}
}

// hijackSpy calls write before every write on the connection a handler
// hijacks through it.
type hijackSpy struct {
	http.ResponseWriter
	write func()
}

func (h *hijackSpy) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	conn, brw, err := http.NewResponseController(h.ResponseWriter).Hijack()
	return &spiedConn{Conn: conn, write: h.write}, brw, err
}

type spiedConn struct {
	net.Conn
	write func()
}

func (c *spiedConn) Write(p []byte) (int, error) {
	c.write()
	return c.Conn.Write(p)
}

package transport_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/occupancy"
	"occusim/internal/overload"
	"occusim/internal/scenario"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// form is one way a request can fail, in the shape a site meets it: an
// error this process built (value), an HTTP server's answer (answer, or a
// network fault), or a shard's reply on the stream (reply).
type form struct {
	name   string
	value  error
	answer http.HandlerFunc
	fault  string // "refused", "reset", "deadline", "cut off", "unparsable"
	reply  []byte // a stream reply envelope, or "refused" / "reset" faults on the stream
}

// decisions is everything the system decides about one failure: how a
// face answers it over HTTP and on the shard stream, whether it counts
// against the shard's breaker, whether the stream and the HTTP client
// retry it and after what wait, where the device uplink goes next, what
// the crowd driver makes of it and whether the lease steps down, and —
// for a failure a face answers a device — what the uplink does with it
// over the device stream, which must be what it does with the POST. "n/a"
// marks a site the form never reaches.
type decisions struct {
	status                              int
	retryAfter, leaderEpoch, leaderHint string
	stream, breaker                     string
	streamRetry, httpRetry, uplink      string
	driver                              string
	stepDown                            bool
	device                              string
}

func answering(code int, hdr ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i+1 < len(hdr); i += 2 {
			w.Header().Set(hdr[i], hdr[i+1])
		}
		http.Error(w, "refused by the test", code)
	}
}

func streamReply(status byte, body []byte) []byte {
	out := append(wire.BeginStreamReply(nil, status), body...)
	wire.EndStreamReply(out)
	return out
}

// TestOneFailureVocabulary is the whole table: each failure form against
// every site that decides something about a failure. The expected cells
// are the decisions each site made when it read failures on its own,
// written out, except three that disagreed with the rest of their row: a
// plain error — a LocalShard's rejection — does not count against the
// breaker, an answered 429 is a shed to the crowd driver as the
// in-process one is, and a body cut off mid-read is answered 502.
func TestOneFailureVocabulary(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{}`))
	}))
	defer peer.Close()
	hint := peer.URL
	shed := &overload.Error{RetryAfter: 1500 * time.Millisecond}
	stale := &transport.StaleLeaderError{Granted: 9, Leader: hint}
	staleReply := streamReply(wire.StreamStale, append(binary.LittleEndian.AppendUint64(nil, 9), hint...))

	forms := []form{
		{name: "in-process shed", value: fmt.Errorf("gateway: %w", shed),
			reply: streamReply(wire.StreamOverload, binary.LittleEndian.AppendUint64(nil, uint64(shed.RetryAfter)))},
		{name: "429 Retry-After 2", answer: answering(429, "Retry-After", "2")},
		{name: "429 Retry-After 0.5", answer: answering(429, "Retry-After", "0.5")},
		{name: "429 Retry-After 0", answer: answering(429, "Retry-After", "0")},
		{name: "429 without Retry-After", answer: answering(429)},
		{name: "in-process stale", value: stale},
		{name: "stream stale", reply: staleReply},
		{name: "federated read around a shed", value: &transport.Error{Code: 502, Err: fmt.Errorf("fleet: shard x: %w", shed)}},
		{name: "federated read around a stale", value: &transport.Error{Code: 502, Err: fmt.Errorf("fleet: shard x: %w", stale)}},
		{name: "409 with X-Leader-Epoch", answer: answering(409, transport.HeaderLeaderEpoch, "9", transport.HeaderLeaderHint, hint)},
		{name: "standby's 409", value: &transport.Error{Code: 409, Leader: hint, Err: errors.New("gateway is standby, not leading")},
			answer: answering(409, transport.HeaderLeaderHint, hint)},
		{name: "409 with neither", answer: answering(409)},
		{name: "state conflict", value: &transport.Error{Code: 409, Err: errors.New("bms: device state already installed")}},
		{name: "body too large", value: fmt.Errorf("read body: %w", wire.ErrBodyTooLarge)},
		{name: "413", answer: answering(413)},
		{name: "stream too-large", reply: streamReply(wire.StreamTooLarge, []byte("wire: body exceeds size limit"))},
		{name: "log refusal", value: &transport.Error{Code: 503, RetryAfter: time.Second, Err: errors.New("wal: closed")},
			answer: answering(503, "Retry-After", "1")},
		{name: "no healthy shards", value: fleet.ErrNoHealthyShards},
		{name: "shard misbehaved", value: fmt.Errorf("%w: malformed rooms ack", fleet.ErrShardMisbehaved),
			reply: streamReply(9, nil)},
		{name: "shard tripped", value: fmt.Errorf("%w: shard x", fleet.ErrShardTripped)},
		{name: "answered 500", answer: answering(500)},
		{name: "refused dial", fault: "refused", reply: []byte("refused")},
		{name: "reset", fault: "reset", reply: staleReply[:5]},
		{name: "deadline", fault: "deadline"},
		{name: "body cut off", fault: "cut off"},
		{name: "unparsable target", fault: "unparsable"},
		{name: "answered 400", answer: answering(400),
			reply: streamReply(wire.StreamRejected, []byte("decode frame: wire: truncated frame"))},
		{name: "answered 404", answer: answering(404)},
		{name: "answered 415", answer: func(w http.ResponseWriter, r *http.Request) {
			if wire.IsContentType(r.Header.Get("Content-Type")) {
				answering(415)(w, r)
				return
			}
			w.Write([]byte(`{}`))
		}},
		{name: "plain error", value: errors.New("bms: report without device")},
	}

	want := map[string]decisions{
		"in-process shed":               {429, "2", "", "", "overload", "spares", "retry", "n/a", "n/a", "shed", false, "retry after 2s, rotate"},
		"429 Retry-After 2":             {429, "2", "", "", "n/a", "spares", "n/a", "retry after 2s", "rotate", "shed", false, "n/a"},
		"429 Retry-After 0.5":           {429, "1", "", "", "n/a", "spares", "n/a", "retry after 500ms", "rotate", "shed", false, "n/a"},
		"429 Retry-After 0":             {429, "1", "", "", "n/a", "spares", "n/a", "retry after 0s", "rotate", "shed", false, "n/a"},
		"429 without Retry-After":       {429, "1", "", "", "n/a", "spares", "n/a", "retry after 100ms", "rotate", "shed", false, "n/a"},
		"in-process stale":              {409, "", "9", hint, "stale", "spares", "n/a", "n/a", "n/a", "fault", true, "redirect"},
		"stream stale":                  {409, "", "9", hint, "n/a", "spares", "final", "n/a", "n/a", "fault", true, "n/a"},
		"federated read around a shed":  {429, "2", "", "", "n/a", "spares", "n/a", "n/a", "n/a", "shed", false, "retry after 2s, rotate"},
		"federated read around a stale": {409, "", "9", hint, "n/a", "spares", "n/a", "n/a", "n/a", "fault", true, "redirect"},
		// A face and the lease meet this answer only through an
		// HTTPShard, as the stale error it reads as.
		"409 with X-Leader-Epoch": {409, "", "9", hint, "n/a", "spares", "n/a", "final", "redirect", "fault", true, "n/a"},
		// A standby's refusal names where leadership lives and no grant;
		// a conflict with the server's state names neither.
		"standby's 409":     {409, "", "", hint, "n/a", "n/a", "n/a", "final", "redirect", "fault", false, "redirect"},
		"409 with neither":  {0, "", "", "", "n/a", "spares", "n/a", "final", "rotate", "fault", false, "n/a"},
		"state conflict":    {409, "", "", "", "stale", "spares", "n/a", "n/a", "n/a", "fault", false, "rotate"},
		"body too large":    {413, "", "", "", "too-large", "n/a", "n/a", "n/a", "n/a", "fault", false, "give up"},
		"413":               {400, "", "", "", "n/a", "spares", "n/a", "final", "give up", "fault", false, "n/a"},
		"stream too-large":  {400, "", "", "", "n/a", "spares", "final", "n/a", "n/a", "fault", false, "n/a"},
		"log refusal":       {503, "1", "", "", "hang-up", "counts", "n/a", "retry after 1s", "rotate", "fault", false, "retry after 1s, rotate"},
		"no healthy shards": {503, "", "", "", "n/a", "counts", "n/a", "n/a", "n/a", "fault", false, "retry after 100ms, rotate"},
		"shard misbehaved":  {502, "", "", "", "n/a", "counts", "final", "n/a", "n/a", "fault", false, "retry after 100ms, rotate"},
		"shard tripped":     {503, "", "", "", "n/a", "spares", "n/a", "n/a", "n/a", "fault", false, "retry after 100ms, rotate"},
		"answered 500":      {502, "", "", "", "n/a", "counts", "n/a", "retry after 100ms", "rotate", "fault", false, "n/a"},
		"refused dial":      {502, "", "", "", "n/a", "counts", "retry", "retry after 100ms", "rotate", "fault", false, "n/a"},
		"reset":             {502, "", "", "", "n/a", "counts", "retry", "retry after 100ms", "rotate", "fault", false, "n/a"},
		"deadline":          {502, "", "", "", "n/a", "counts", "n/a", "retry after 100ms", "rotate", "fault", false, "n/a"},
		"body cut off":      {502, "", "", "", "n/a", "counts", "n/a", "retry after 100ms", "rotate", "fault", false, "n/a"},
		"unparsable target": {502, "", "", "", "n/a", "counts", "n/a", "final", "rotate", "fault", false, "n/a"},
		"answered 400":      {400, "", "", "", "n/a", "spares", "final", "final", "give up", "fault", false, "n/a"},
		"answered 404":      {400, "", "", "", "n/a", "spares", "n/a", "final", "give up", "fault", false, "n/a"},
		"answered 415":      {400, "", "", "", "n/a", "spares", "n/a", "final", "latch JSON", "fault", false, "n/a"},
		"plain error":       {400, "", "", "", "rejected", "spares", "n/a", "n/a", "n/a", "fault", false, "give up"},
	}

	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			got := decide(t, f, hint)
			w, ok := want[f.name]
			if !ok {
				t.Fatalf("no expected row; got %#v", got)
			}
			if w.status == 0 { // the HTTP answer of a form no face renders
				got.status, got.retryAfter, got.leaderEpoch, got.leaderHint = 0, "", "", ""
			}
			for _, c := range [][2]*string{{&got.stream, &w.stream}, {&got.breaker, &w.breaker}} {
				if *c[1] == "n/a" {
					*c[0] = "n/a"
				}
			}
			if got != w {
				t.Errorf("\n got %#v\nwant %#v", got, w)
			}
		})
	}
}

// decide drives every site with one form.
func decide(t *testing.T, f form, hint string) decisions {
	var d decisions
	err := f.value
	if f.answer != nil || f.fault != "" {
		url := serveForm(t, f)
		d.httpRetry = httpRetry(t, url)
		d.uplink = uplinkHop(url, hint)
		if err == nil {
			_, err = transport.DoJSONHeaders(newClient(), http.MethodPost, url, []byte(`{}`), frameHeader, transport.RetryPolicy{})
		}
	} else {
		d.httpRetry, d.uplink = "n/a", "n/a"
	}
	d.device = "n/a"
	if f.value != nil {
		d.device = deviceStream(t, f.value, hint)
	}
	d.streamRetry = "n/a"
	if f.reply != nil {
		var streamErr error
		d.streamRetry, streamErr = streamRetry(t, f.reply)
		if err == nil {
			err = streamErr
		}
	}
	if err == nil {
		t.Fatal("the form did not fail")
	}
	rec := httptest.NewRecorder()
	bms.WriteFailure(rec, err)
	d.status = rec.Code
	d.retryAfter = rec.Header().Get("Retry-After")
	d.leaderEpoch = rec.Header().Get(transport.HeaderLeaderEpoch)
	d.leaderHint = rec.Header().Get(transport.HeaderLeaderHint)
	d.stream = streamReplyOf(err)
	d.breaker = "spares"
	if breakerCounts(t, err) {
		d.breaker = "counts"
	}
	d.driver = driverTakes(t, err)
	d.stepDown = leaseStepsDown(t, err)
	return d
}

// serveForm starts a server that answers f every time and returns its
// URL; a refused dial gets the URL of a closed one.
func serveForm(t *testing.T, f form) string {
	switch f.fault {
	case "unparsable":
		return "http://shard\x7f.test"
	case "refused":
		ts := httptest.NewServer(http.NotFoundHandler())
		ts.Close()
		return ts.URL
	}
	h := f.answer
	switch f.fault {
	case "reset", "cut off":
		h = func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			conn, buf, err := http.NewResponseController(w).Hijack()
			if err != nil {
				panic(err)
			}
			if f.fault == "cut off" {
				buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"rooms\"")
				buf.Flush()
			}
			conn.Close()
		}
	case "deadline":
		h = func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(300 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// newClient is a client of its own per exchange, so no kept-alive
// connection carries one form's fault into another's, with a deadline
// the deadline form overruns.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{}, Timeout: 100 * time.Millisecond}
}

// frameHeader posts as the frame door's clients do, which the 415 form
// refuses.
var frameHeader = http.Header{"Content-Type": {wire.ContentType}}

// httpRetry is what Target.Do does with the form: retry once it failed
// (under a two-attempt policy), and after what wait.
func httpRetry(t *testing.T, url string) string {
	var waits []time.Duration
	policy := transport.RetryPolicy{MaxAttempts: 2, Sleep: func(d time.Duration) { waits = append(waits, d) }}
	if _, err := transport.DoJSONHeaders(newClient(), http.MethodPost, url, []byte(`{}`), frameHeader, policy); err == nil {
		t.Fatal("the exchange succeeded")
	}
	if len(waits) == 0 {
		return "final"
	}
	return fmt.Sprintf("retry after %v", waits[0])
}

// uplinkHop is where a device uplink with the form's server first and a
// healthy peer second goes once the form failed its upload.
func uplinkHop(url, hint string) string {
	up := &transport.HTTPUplink{BaseURL: url, Peers: []string{hint}, Client: newClient(), Codec: transport.CodecBinary}
	err := up.SendBatch([]transport.Report{{Device: "d", AtSeconds: 1, Epoch: 1, Seq: 1}})
	redirects, rotations := up.Stats()
	switch {
	case redirects > 0:
		return "redirect"
	case rotations > 0:
		return "rotate"
	case err == nil:
		return "latch JSON"
	}
	return "give up"
}

// scriptRT upgrades every dial onto the script; "refused" refuses it.
type scriptRT struct {
	script []byte
	tries  int // refused dials and frames written
}

type scriptConn struct {
	bytes.Reader
	rt *scriptRT
}

func (c *scriptConn) Write(p []byte) (int, error) { c.rt.tries++; return len(p), nil }
func (c *scriptConn) Close() error                { return nil }

func (rt *scriptRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if string(rt.script) == "refused" {
		rt.tries++
		return nil, errors.New("connection refused")
	}
	conn := &scriptConn{rt: rt}
	conn.Reset(bytes.Repeat(rt.script, 2))
	return &http.Response{
		StatusCode: http.StatusSwitchingProtocols, Status: "101 Switching Protocols",
		Header: http.Header{"Upgrade": {wire.StreamProtocol}}, Body: conn, Request: req,
	}, nil
}

// streamRetry is what HTTPShard.IngestFrame does with a reply under a
// two-attempt policy, and the error it ends with.
func streamRetry(t *testing.T, reply []byte) (string, error) {
	rt := &scriptRT{script: reply}
	policy := transport.RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	hs, err := fleet.NewHTTPShard("http://shard-0.test", &http.Client{Transport: rt}, policy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = hs.IngestFrame(bytes.Repeat([]byte{0xab}, 64), 3)
	if err == nil {
		t.Fatal("the stream exchange succeeded")
	}
	if rt.tries > 1 {
		return "retry", err
	}
	return "final", err
}

// failOnce fails its first delivery with err.
type failOnce struct {
	fleet.Shard
	err    error
	failed bool
}

func (s *failOnce) IngestFrame(frame []byte, reports int) ([]string, error) {
	if !s.failed {
		s.failed = true
		return nil, s.err
	}
	return s.Shard.IngestFrame(frame, reports)
}

func report(b *building.Building) []transport.Report {
	rep := transport.Report{Device: "d", AtSeconds: 1}
	for _, bc := range b.Beacons {
		rep.Beacons = append(rep.Beacons, transport.BeaconReport{ID: bc.ID.String(), Distance: 3, RSSI: -63})
	}
	return []transport.Report{rep}
}

// breakerCounts reports whether a gateway whose breaker trips on the
// first failure refuses the next delivery after the shard failed with err.
func breakerCounts(t *testing.T, err error) bool {
	b := building.PaperHouse()
	pool, perr := fleet.OpenLocalPool(b, 1, 2, 100, "", store.FsyncBatch)
	if perr != nil {
		t.Fatal(perr)
	}
	gw, gerr := fleet.New([]fleet.Shard{&failOnce{Shard: pool.Shards[0], err: err}}, fleet.Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	if gerr != nil {
		t.Fatal(gerr)
	}
	if _, err := gw.IngestBatch(report(b)); err == nil {
		t.Fatal("the failing delivery succeeded")
	}
	_, next := gw.IngestBatch(report(b))
	return errors.Is(next, fleet.ErrShardTripped)
}

// driverTakes is what the crowd driver, with no fault budget, makes of an
// exchange that failed with err once.
func driverTakes(t *testing.T, err error) string {
	streams := [][]transport.Report{{{Device: "d", AtSeconds: 1}}}
	sink := &onceSink{err: err}
	if _, err := (scenario.Driver{}).Drive(scenario.Lanes(streams, 1), sink); err != nil {
		return "fault"
	}
	return "shed"
}

type onceSink struct {
	err    error
	failed bool
}

func (s *onceSink) Name() string                { return "once" }
func (s *onceSink) Send(transport.Report) error { panic("the driver sends whole batches") }
func (s *onceSink) SendBatch([]transport.Report) error {
	if !s.failed {
		s.failed = true
		return s.err
	}
	return nil
}

// leaseStepsDown reports whether a gateway leading at epoch 1 steps down
// when a dispatch fails with err.
func leaseStepsDown(t *testing.T, err error) bool {
	pool, perr := fleet.OpenLocalPool(building.PaperHouse(), 1, 2, 100, "", store.FsyncBatch)
	if perr != nil {
		t.Fatal(perr)
	}
	gw, gerr := fleet.New(pool.Shards, fleet.Config{})
	if gerr != nil {
		t.Fatal(gerr)
	}
	ctl, cerr := fleet.NewLeaseController(gw, fleet.LeaseConfig{Self: "http://gw-a.test"})
	if cerr != nil {
		t.Fatal(cerr)
	}
	if err := ctl.Claim(); err != nil || !ctl.Active() {
		t.Fatalf("claim: %v", err)
	}
	ctl.ObserveStale(err)
	return !ctl.Active()
}

// streamReplyOf is the reply a shard's stream sends for a failed frame:
// appendStreamReply is a switch on the class, and hangs up on the rest.
func streamReplyOf(err error) string {
	switch transport.Classify(err).Class {
	case transport.Shed:
		return "overload"
	case transport.Stale:
		return "stale"
	case transport.TooLarge:
		return "too-large"
	case transport.Rejected:
		return "rejected"
	}
	return "hang-up"
}

// deviceStream is what a device uplink does with a failure a face answers
// it, on the upload stream and to the POST: the verdict of one exchange
// of each, which must be the same, and where an uplink with a healthy peer
// goes once the face failed its upload — retry and after what wait, then
// redirect, rotate or give up — which must be the same too.
func deviceStream(t *testing.T, err error, hint string) string {
	url := serveFace(t, err)
	frame := wire.GetBatch()
	defer wire.PutBatch(frame)
	if err := transport.EncodeReports(frame, []transport.Report{{Device: "d", AtSeconds: 1, Epoch: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	_, postErr := transport.DoJSONHeaders(newClient(), http.MethodPost, url+transport.BatchPath, []byte(`[]`), nil, transport.RetryPolicy{})
	st, serr := transport.NewStream(url, wire.UplinkPath, wire.UplinkProtocol, newClient())
	if serr != nil {
		t.Fatal(serr)
	}
	streamErr := st.Exchange(0, wire.AppendFrame(nil, frame), transport.RetryPolicy{}, nil)
	if post, stream := transport.Classify(postErr), transport.Classify(streamErr); post != stream {
		return fmt.Sprintf("verdicts differ: POST %+v, stream %+v", post, stream)
	}
	post, stream := uplinkGoes(url, hint, transport.CodecJSON), uplinkGoes(url, hint, transport.CodecBinary)
	if post != stream {
		return fmt.Sprintf("POST: %s; stream: %s", post, stream)
	}
	return post
}

// uplinkGoes sends one upload, in codec, through an uplink with the
// face at url first and the healthy peer second, under a two-attempt
// policy.
func uplinkGoes(url, peer string, codec transport.Codec) string {
	var waits []time.Duration
	policy := transport.RetryPolicy{MaxAttempts: 2, Sleep: func(d time.Duration) { waits = append(waits, d) }}
	up := &transport.HTTPUplink{BaseURL: url, Peers: []string{peer}, Client: newClient(), Retry: policy, Codec: codec}
	err := up.SendBatch([]transport.Report{{Device: "d", AtSeconds: 1, Epoch: 1, Seq: 1}})
	redirects, rotations := up.Stats()
	hop := "give up"
	switch {
	case redirects > 0:
		hop = "redirect"
	case rotations > 0:
		hop = "rotate"
	case err == nil:
		hop = "delivered"
	}
	if len(waits) > 0 {
		return fmt.Sprintf("retry after %v, %s", waits[0], hop)
	}
	return hop
}

// serveFace serves the route table over a face that fails every upload
// with err, and returns its URL.
func serveFace(t *testing.T, err error) string {
	ts := httptest.NewServer(bms.Routes(&failingFace{err: err}, nil))
	t.Cleanup(ts.Close)
	return ts.URL
}

// failingFace answers every upload with err.
type failingFace struct {
	err     error
	streams bms.StreamSet
}

func (f *failingFace) UploadJSON(bms.Stamp, *transport.JSONUpload, []string) ([]string, error) {
	return nil, f.err
}
func (f *failingFace) UploadFrame(bms.Stamp, []byte, []string) ([]string, error) { return nil, f.err }
func (f *failingFace) Health() (any, bool)                                       { return nil, true }
func (f *failingFace) Occupancy() (bms.OccupancySnapshot, error)                 { return bms.OccupancySnapshot{}, nil }
func (f *failingFace) DwellTotals() (map[string]time.Duration, error)            { return nil, nil }
func (f *failingFace) Rollup() (bms.Rollup, error)                               { return bms.Rollup{}, nil }
func (f *failingFace) Events() ([]occupancy.Event, error)                        { return nil, nil }
func (f *failingFace) PutModel(bms.ModelSnapshot) (any, error)                   { return nil, nil }
func (f *failingFace) Trained(bms.TrainResult) (any, error)                      { return nil, nil }
func (f *failingFace) Metrics() *obs.Metrics                                     { return nil }
func (f *failingFace) Streams() *bms.StreamSet                                   { return &f.streams }

package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/obs"
	"occusim/internal/raceflag"
	"occusim/internal/ring"
	"occusim/internal/wire"
)

// wireReports builds n sequenced reports across a few devices.
func wireReports(n int) []Report {
	out := make([]Report, n)
	for i := range out {
		out[i] = Report{
			Device:    fmt.Sprintf("phone-%d", i%4),
			AtSeconds: float64(i),
			Epoch:     1,
			Seq:       uint64(i + 1),
			Beacons: []BeaconReport{
				{ID: fmt.Sprintf("C0FFEE00-BEEF-4A11-8000-%012d/1/%d", i%8, i%8), Distance: 1.5, RSSI: -60},
			},
		}
	}
	return out
}

// reportsOf renders a decoded wire batch back into report form.
func reportsOf(b *wire.Batch) []Report {
	out := make([]Report, b.Len())
	for i := range out {
		out[i] = Report{Device: b.Devices[i], AtSeconds: b.At[i], Epoch: b.Epoch[i], Seq: b.Seq[i]}
		for _, bc := range b.ReportBeacons(i) {
			out[i].Beacons = append(out[i].Beacons, BeaconReport{ID: bc.ID.String(), Distance: bc.Distance, RSSI: bc.RSSI})
		}
	}
	return out
}

// The ring every publishing frontend of these tests serves.
var (
	testShards  = []string{"shard-0", "shard-1", "shard-2"}
	testRing, _ = ring.New(testShards, 0)
	testDigest  = testRing.Digest(nil)
)

// upload is one upload a frontend received — a POST, or an envelope on
// the upload stream — the form it came in and the reports it carried,
// decoded whatever the answer was going to be; or an upgrade it refused.
type upload struct {
	form    string // "report", "json", "frame", "sections" or "upgrade"
	reports []Report
}

// frontend is a stand-in for one server a device uplink may be pointed
// at. Its kind decides what it speaks:
//
//	ring      a gateway: publishes a ring, takes JSON, frames and sections
//	ringless  a single bms box: no ring (404), takes frames and JSON
//	jsonOnly  a server that predates the codec: no ring, no upload
//	          stream (the upgrade is answered 404, recorded as "upgrade")
//
// Frames and sections come in as envelopes on the upload stream, JSON as
// POSTs. deposed turns any of them into a standby: every upload is
// answered stale — 409 over HTTP —, naming hint as the leader when hint is
// set.
type frontend struct {
	t    *testing.T
	kind string
	ts   *httptest.Server

	mu       sync.Mutex
	deposed  bool
	hint     string
	refuse   int // when nonzero, the status every upload is refused with
	got      []upload
	ringGets int
	// holdRing, when set, holds every ring answer after the first until it is
	// closed; ringAsked then says that one is being held.
	holdRing  chan struct{}
	ringAsked chan struct{}
}

func newFrontend(t *testing.T, kind string) *frontend {
	f := &frontend{t: t, kind: kind}
	f.ts = httptest.NewServer(f)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/v1/ring" {
		f.mu.Lock()
		f.ringGets++
		hold := f.holdRing
		if f.ringGets == 1 {
			hold = nil
		}
		f.mu.Unlock()
		if hold != nil {
			select {
			case f.ringAsked <- struct{}{}:
			default:
			}
			<-hold
		}
		if f.kind != "ring" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(RingInfo{Digest: testDigest, Replicas: testRing.Replicas(), Shards: testShards})
		return
	}
	if r.URL.Path == wire.UplinkPath {
		if f.kind == "jsonOnly" {
			f.record(upload{form: "upgrade"})
			http.NotFound(w, r)
			return
		}
		serveUplink(f.t, w, r, f.take)
		return
	}
	if wire.IsContentType(r.Header.Get("Content-Type")) {
		f.t.Errorf("%s frontend was POSTed a frame: binary uploads ride the stream", f.kind)
	}
	body, _ := io.ReadAll(r.Body)
	up := upload{form: "json"}
	var err error
	if r.URL.Path == "/api/v1/observations" {
		up.form = "report"
		up.reports = make([]Report, 1)
		err = json.Unmarshal(body, &up.reports[0])
	} else {
		err = json.Unmarshal(body, &up.reports)
	}
	if err != nil {
		f.t.Errorf("%s frontend could not decode a %s upload: %v", f.kind, up.form, err)
	}
	deposed, hint, refuse := f.record(up)
	switch {
	case deposed:
		if hint != "" {
			w.Header().Set(HeaderLeaderHint, hint)
			w.Header().Set(HeaderLeaderEpoch, "2")
		}
		http.Error(w, `{"error":"standby"}`, http.StatusConflict)
	case refuse != 0:
		http.Error(w, "refused", refuse)
	default:
		w.Write([]byte(`{"rooms":[]}`))
	}
}

// take is the frontend's upload stream door: one envelope's frame — sections
// when it is stamped with a digest — decoded and recorded, and the reply
// the POST's answer would have been.
func (f *frontend) take(digest uint64, body []byte) []byte {
	up := upload{form: "frame"}
	var err error
	if digest != 0 {
		up.form = "sections"
		if want, _ := strconv.ParseUint(testDigest, 16, 64); digest != want || f.kind != "ring" {
			f.t.Errorf("%s frontend got sections under digest %x", f.kind, digest)
		}
		err = wire.ScanSections(body, func(shard, frame, payload []byte) error {
			b := new(wire.Batch)
			if err := wire.DecodePayload(payload, b); err != nil {
				return err
			}
			// The device must have reproduced the ring's routing exactly.
			for _, dev := range b.Devices {
				if owner, _ := testRing.Owner(dev, nil); testShards[owner] != string(shard) {
					return fmt.Errorf("device %q in section %q, the ring says %q", dev, shard, testShards[owner])
				}
			}
			up.reports = append(up.reports, reportsOf(b)...)
			return nil
		})
	} else {
		b := new(wire.Batch)
		err = wire.DecodeFrame(body, b)
		up.reports = reportsOf(b)
	}
	if err != nil {
		f.t.Errorf("%s frontend could not decode a %s upload: %v", f.kind, up.form, err)
	}
	deposed, hint, refuse := f.record(up)
	switch {
	case deposed && hint != "":
		return reply(wire.StreamStale, append(binary.LittleEndian.AppendUint64(nil, 2), hint...))
	case deposed:
		return reply(wire.StreamStale, binary.LittleEndian.AppendUint64(nil, 0))
	case refuse == http.StatusRequestEntityTooLarge:
		return reply(wire.StreamTooLarge, []byte("refused"))
	case refuse != 0:
		return reply(wire.StreamRejected, []byte("refused"))
	}
	return reply(wire.StreamOK, nil)
}

// record keeps up and returns what the frontend answers it with.
func (f *frontend) record(up upload) (deposed bool, hint string, refuse int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.got = append(f.got, up)
	return f.deposed, f.hint, f.refuse
}

// reply renders one reply envelope.
func reply(status byte, body []byte) []byte {
	out := append(wire.BeginStreamReply(nil, status), body...)
	wire.EndStreamReply(out)
	return out
}

// serveUplink upgrades a request for the upload stream and serves it: each
// envelope's frame and stamp go to take, and what it returns is the reply.
func serveUplink(t *testing.T, w http.ResponseWriter, r *http.Request, take func(stamp uint64, frame []byte) []byte) {
	if r.Header.Get("Upgrade") != wire.UplinkProtocol {
		t.Errorf("the upload stream was asked for %q", r.Header.Get("Upgrade"))
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + wire.UplinkProtocol + "\r\n\r\n")); err != nil {
		return
	}
	var buf []byte
	for {
		_, stamp, frame, err := wire.ReadStreamRequest(brw.Reader, &buf)
		if err != nil {
			return
		}
		if _, err := conn.Write(take(stamp, frame)); err != nil {
			return
		}
	}
}

func (f *frontend) depose(hint string) {
	f.mu.Lock()
	f.deposed, f.hint = true, hint
	f.mu.Unlock()
}

func (f *frontend) lead() {
	f.mu.Lock()
	f.deposed = false
	f.mu.Unlock()
}

// forms lists the forms of the uploads received, in order.
func (f *frontend) forms() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := []string{}
	for _, up := range f.got {
		out = append(out, up.form)
	}
	return out
}

// identities renders reports as sorted "device/epoch/seq/beacon ids"
// keys: what must be the same on every attempt and hop, in whatever order
// a pre-split laid the reports out.
func identities(reports []Report) []string {
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = fmt.Sprintf("%s/%d/%d@%v", r.Device, r.Epoch, r.Seq, r.AtSeconds)
		for _, b := range r.Beacons {
			out[i] += " " + b.ID
		}
	}
	sort.Strings(out)
	return out
}

// TestUplinkLadder walks the one device uplink up and down its ladder:
// one and two targets × what a target can be — a gateway publishing a
// ring, a ringless wire server, a JSON-only server, a deposed gateway
// naming the leader, a refused connection. Per row: the form every
// target received, in order, binary uploads as envelopes on its upload
// stream; the latch a refused upgrade sets, per target, never contagious;
// the redirect and rotation counts; where the uplink sticks; and that
// every attempt and hop carried the very identities that were sent.
func TestUplinkLadder(t *testing.T) {
	type row struct {
		name   string
		kinds  []string    // the configured targets, in order; "refused" is a closed port, "deposed" a ring gateway answering 409
		hints  map[int]int // deposed frontend → the frontend it names as the leader
		extra  string      // one more frontend outside the target list (a leader to be learned)
		codec  Codec
		single bool // Send, not SendBatch
		sends  int
		// between runs after the first send.
		between func(fs []*frontend)

		want      [][]string // forms per frontend, extra last
		latched   []int      // frontends whose target record ends JSON-only
		redirects uint64
		rotations uint64
		sleeps    int    // backoff sleeps under a 3-attempt policy
		sticks    int    // the frontend Target() names at the end
		err       string // "": every send succeeds; else a substring of the first send's error
		counts    map[string]float64
	}
	sections3 := []string{"sections", "sections", "sections"}
	rows := []row{
		{name: "1.ring", kinds: []string{"ring"}, codec: CodecBinary, sends: 3,
			want: [][]string{sections3}, counts: map[string]float64{"presplit": 3}},
		{name: "1.ring.json", kinds: []string{"ring"}, codec: CodecJSON, sends: 3,
			want: [][]string{{"json", "json", "json"}}, counts: map[string]float64{"json": 3}},
		{name: "1.ring.json-single", kinds: []string{"ring"}, codec: CodecJSON, single: true, sends: 2,
			want: [][]string{{"report", "report"}}},
		{name: "1.ringless", kinds: []string{"ringless"}, codec: CodecBinary, sends: 3,
			want: [][]string{{"frame", "frame", "frame"}}, counts: map[string]float64{"binary": 3}},
		{name: "1.ringless.single", kinds: []string{"ringless"}, codec: CodecBinary, single: true, sends: 1,
			want: [][]string{{"frame"}}, counts: map[string]float64{"binary": 1}},
		{name: "1.json-only", kinds: []string{"jsonOnly"}, codec: CodecBinary, sends: 3,
			want: [][]string{{"upgrade", "json", "json", "json"}}, latched: []int{0},
			counts: map[string]float64{"json": 3, "downgrades": 1}},
		{name: "1.json-only.single", kinds: []string{"jsonOnly"}, codec: CodecBinary, single: true, sends: 2,
			want: [][]string{{"upgrade", "report", "report"}}, latched: []int{0}, counts: map[string]float64{"downgrades": 1}},
		{name: "1.deposed-learns-unlisted-leader", kinds: []string{"deposed"}, hints: map[int]int{0: 1}, extra: "ring", codec: CodecBinary, sends: 2,
			want: [][]string{{"sections"}, {"sections", "sections"}}, redirects: 1, sticks: 1,
			counts: map[string]float64{"presplit": 2}},
		{name: "1.deposed-without-hint", kinds: []string{"deposed"}, codec: CodecJSON, sends: 1,
			want: [][]string{{"json"}}, err: "409"},
		{name: "1.refused", kinds: []string{"refused"}, codec: CodecBinary, sends: 1,
			want: [][]string{nil}, sleeps: 4, err: "connection refused"}, // the first ring fetch and the frame each spend the policy

		{name: "2.ring+idle", kinds: []string{"ring", "ring"}, codec: CodecBinary, sends: 3,
			want: [][]string{sections3, {}}, counts: map[string]float64{"presplit": 3}},
		{name: "2.deposed-follows-hint.json-single", kinds: []string{"deposed", "ring"}, hints: map[int]int{0: 1}, codec: CodecJSON, single: true, sends: 2,
			want: [][]string{{"report"}, {"report", "report"}}, redirects: 1, sticks: 1},
		{name: "2.deposed-follows-hint.binary", kinds: []string{"deposed", "ringless"}, hints: map[int]int{0: 1}, codec: CodecBinary, sends: 2,
			want: [][]string{{"sections"}, {"frame", "frame"}}, redirects: 1, sticks: 1,
			counts: map[string]float64{"binary": 2}},
		{name: "2.deposed-without-hint-rotates", kinds: []string{"deposed", "ring"}, codec: CodecBinary, sends: 2,
			want: [][]string{{"sections"}, {"sections", "sections"}}, rotations: 1, sticks: 1,
			counts: map[string]float64{"presplit": 2}},
		{name: "2.refused-rotates", kinds: []string{"refused", "ring"}, codec: CodecBinary, sends: 2,
			want: [][]string{nil, {"sections", "sections"}}, rotations: 1, sleeps: 4, sticks: 1,
			counts: map[string]float64{"presplit": 2}},
		{name: "2.refused-rotates.json", kinds: []string{"refused", "jsonOnly"}, codec: CodecJSON, sends: 2,
			want: [][]string{nil, {"json", "json"}}, rotations: 1, sleeps: 2, sticks: 1, counts: map[string]float64{"json": 2}},
		{name: "2.latch-is-per-target", kinds: []string{"jsonOnly", "ring"}, codec: CodecBinary, sends: 3,
			// Latched, then deposed: the leader it names is still offered the codec.
			between: func(fs []*frontend) { fs[0].depose(fs[1].ts.URL) },
			want:    [][]string{{"upgrade", "json", "json"}, {"sections", "sections"}}, latched: []int{0}, redirects: 1, sticks: 1,
			counts: map[string]float64{"json": 1, "presplit": 2, "downgrades": 1}},
		{name: "2.json-only-pair", kinds: []string{"jsonOnly", "jsonOnly"}, codec: CodecBinary, sends: 2,
			between: func(fs []*frontend) { fs[0].depose("") },
			want:    [][]string{{"upgrade", "json", "json"}, {"upgrade", "json"}}, latched: []int{0, 1}, rotations: 1, sticks: 1,
			counts: map[string]float64{"json": 2, "downgrades": 2}},
		{name: "2.all-deposed-is-bounded", kinds: []string{"deposed", "deposed"}, hints: map[int]int{0: 1, 1: 0}, codec: CodecBinary, sends: 1,
			// 2N + 2 hops, bouncing between the two.
			want:      [][]string{{"sections", "sections", "sections"}, {"sections", "sections", "sections"}},
			redirects: 5, err: "all gateway targets failed"},
	}

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			met := obs.New()
			Instrument(met)
			var fs []*frontend
			var urls []string
			for _, kind := range append(append([]string{}, tc.kinds...), tc.extra) {
				switch kind {
				case "":
				case "refused":
					dead := httptest.NewServer(http.NotFoundHandler())
					dead.Close() // nothing listens here any more
					fs, urls = append(fs, &frontend{}), append(urls, dead.URL)
				case "deposed":
					f := newFrontend(t, "ring")
					f.deposed = true
					fs, urls = append(fs, f), append(urls, f.ts.URL)
				default:
					f := newFrontend(t, kind)
					fs, urls = append(fs, f), append(urls, f.ts.URL)
				}
			}
			for from, to := range tc.hints {
				fs[from].hint = urls[to]
			}

			rec := &sleepRecorder{}
			u := &HTTPUplink{BaseURL: urls[0], Peers: urls[1:len(tc.kinds)], Retry: retryPolicy(rec, 3), Codec: tc.codec}
			reports := wireReports(8)
			if tc.single {
				reports = reports[:1]
			}
			for i := 0; i < tc.sends; i++ {
				var err error
				if tc.single {
					err = u.Send(reports[0])
				} else {
					err = u.SendBatch(reports)
				}
				if (tc.err == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("send %d: %v, want %q", i, err, tc.err)
				}
				if err != nil && len(tc.kinds) == 1 && strings.Contains(err.Error(), "all gateway targets") {
					t.Fatalf("a single target's failure came back wrapped: %v", err)
				}
				if i == 0 && tc.between != nil {
					tc.between(fs)
				}
			}

			sent := identities(reports)
			for i, f := range fs {
				if f.ts == nil {
					continue
				}
				if got := f.forms(); !reflect.DeepEqual(got, append([]string{}, tc.want[i]...)) {
					t.Errorf("frontend %d (%s) received %v, want %v", i, f.kind, got, tc.want[i])
				}
				for k, up := range f.got {
					if got := identities(up.reports); up.form != "upgrade" && !reflect.DeepEqual(got, sent) {
						t.Errorf("frontend %d, upload %d (%s) carried\n%v, sent\n%v", i, k, up.form, got, sent)
					}
				}
				if tc.codec == CodecJSON && f.ringGets != 0 {
					t.Errorf("frontend %d: a JSON uplink asked for the ring %d time(s)", i, f.ringGets)
				}
			}
			if idle := len(tc.kinds) == 2 && len(tc.want[1]) == 0; idle && fs[1].ringGets != 0 {
				t.Errorf("the idle second target was asked for its ring %d time(s)", fs[1].ringGets)
			}
			latched := []int{}
			for i, target := range u.targets {
				if target.jsonOnly.Load() {
					latched = append(latched, i)
				}
			}
			if !reflect.DeepEqual(latched, append([]int{}, tc.latched...)) {
				t.Errorf("JSON-only latches on targets %v, want %v", latched, tc.latched)
			}
			if redirects, rotations := u.Stats(); redirects != tc.redirects || rotations != tc.rotations {
				t.Errorf("redirects=%d rotations=%d, want %d/%d", redirects, rotations, tc.redirects, tc.rotations)
			}
			if len(rec.delays) != tc.sleeps {
				t.Errorf("slept %v, want %d backoff sleep(s): a refused upgrade, a hinted 409 and a rotation cost none of their own", rec.delays, tc.sleeps)
			}
			if tc.err == "" && u.start().base != urls[tc.sticks] {
				t.Errorf("the uplink sticks to %q, want frontend %d (%q)", u.start().base, tc.sticks, urls[tc.sticks])
			}
			snap := met.TakeSnapshot().Counters
			for codec, series := range map[string]string{
				"json": `transport_wire_batches_total{codec="json"}`, "binary": `transport_wire_batches_total{codec="binary"}`,
				"presplit": `transport_wire_batches_total{codec="presplit"}`, "downgrades": "transport_wire_downgrades_total",
			} {
				if snap[series] != tc.counts[codec] {
					t.Errorf("%s = %v, want %v", series, snap[series], tc.counts[codec])
				}
			}
			if snap["transport_leader_redirects_total"] != float64(tc.redirects) || snap["transport_target_rotations_total"] != float64(tc.rotations) {
				t.Errorf("registry counts %v redirects, %v rotations; Stats() says %d/%d", snap["transport_leader_redirects_total"],
					snap["transport_target_rotations_total"], tc.redirects, tc.rotations)
			}
		})
	}
}

// TestUplinkSharedAcrossLeadershipMove: one uplink shared by a crowd of
// senders (scenario's crowd-shared sink, the drills' devices) while
// leadership moves under it — every send lands, on one gateway or the
// other, and the uplink ends stuck to the new leader.
func TestUplinkSharedAcrossLeadershipMove(t *testing.T) {
	a, b := newFrontend(t, "ring"), newFrontend(t, "ring")
	b.depose(a.ts.URL)
	u := &HTTPUplink{BaseURL: a.ts.URL, Peers: []string{b.ts.URL}, Codec: CodecBinary}
	const senders, sends = 8, 20
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				if s == 0 && i == sends/2 {
					b.lead()
					a.depose(b.ts.URL)
				}
				if err := u.SendBatch(wireReports(8)); err != nil {
					t.Errorf("sender %d, send %d: %v", s, i, err)
				}
			}
		}()
	}
	wg.Wait()
	// A send acknowledged by the old leader just before it was deposed may
	// have committed last; the next one settles it.
	if err := u.SendBatch(wireReports(8)); err != nil {
		t.Fatal(err)
	}
	if u.start().base != b.ts.URL {
		t.Errorf("the uplink sticks to %q, want the new leader %q", u.start().base, b.ts.URL)
	}
	if redirects, _ := u.Stats(); redirects == 0 {
		t.Error("leadership moved and no sender followed a hint")
	}
}

// TestDoJSON409FailsImmediately: a 409 is permanent for THIS target — one
// attempt, zero backoff sleeps — so a redirect happens with the whole
// retry budget intact, and the error carries where to.
func TestDoJSON409FailsImmediately(t *testing.T) {
	deposed := newFrontend(t, "ring")
	deposed.depose("http://example.invalid")

	rec := &sleepRecorder{}
	_, err := DoJSON(nil, http.MethodPost, deposed.ts.URL+"/api/v1/observations", []byte(`{}`), retryPolicy(rec, 5))
	v := Classify(err)
	if codeOf(err) != http.StatusConflict {
		t.Fatalf("status = %v (%v)", codeOf(err), err)
	}
	if hits := len(deposed.forms()); hits != 1 {
		t.Fatalf("server saw %d attempts, want 1 (409 must not burn the retry budget)", hits)
	}
	if len(rec.delays) != 0 {
		t.Fatalf("unexpected backoff before 409 failure: %v", rec.delays)
	}
	if v.Leader != "http://example.invalid" || v.Granted != 2 {
		t.Fatalf("leader hint = %q, epoch %d", v.Leader, v.Granted)
	}
}

// TestUplinkClientErrorIsNotRotated: an upload the server refuses as
// invalid says nothing about the target, so it is not offered to the
// next one — a pair that answers 400 (or 413) sees exactly one request,
// and the status reads as from a single target. Reports no codec can
// carry are not posted at all.
func TestUplinkClientErrorIsNotRotated(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusRequestEntityTooLarge} {
		for _, codec := range []Codec{CodecJSON, CodecBinary} {
			a, b := newFrontend(t, "ring"), newFrontend(t, "ring")
			a.refuse, b.refuse = status, status
			b.depose(a.ts.URL) // a standby, hinting back at the leader that refuses
			rec := &sleepRecorder{}
			u := &HTTPUplink{BaseURL: a.ts.URL, Peers: []string{b.ts.URL}, Retry: retryPolicy(rec, 3), Codec: codec}
			err := u.SendBatch(wireReports(4))
			if v := Classify(err); !v.Answered || codeOf(err) != status {
				t.Fatalf("%s: a %d came back as %v", codec, status, err)
			}
			if strings.Contains(err.Error(), "all gateway targets") {
				t.Errorf("%s: the refusal came back wrapped as a failover failure: %v", codec, err)
			}
			if na, nb := len(a.forms()), len(b.forms()); na != 1 || nb != 0 {
				t.Errorf("%s: a refused %d upload was posted %d + %d times, want once", codec, status, na, nb)
			}
			if redirects, rotations := u.Stats(); redirects+rotations != 0 || len(rec.delays) != 0 {
				t.Errorf("%s: %d redirects, %d rotations, %d sleeps after a %d", codec, redirects, rotations, len(rec.delays), status)
			}
		}
	}

	a, b := newFrontend(t, "ring"), newFrontend(t, "ring")
	u := &HTTPUplink{BaseURL: a.ts.URL, Peers: []string{b.ts.URL}, Codec: CodecBinary}
	bad := wireReports(2)
	bad[1].Beacons[0].ID = "nope"
	if err := u.SendBatch(bad); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("an unencodable identity: %v", err)
	}
	if n := len(a.forms()) + len(b.forms()); n != 0 {
		t.Errorf("an unencodable batch was posted %d time(s)", n)
	}
	if _, rotations := u.Stats(); rotations != 0 {
		t.Errorf("an unencodable batch rotated the uplink %d time(s)", rotations)
	}
}

// TestUnknownFrameVersionIsNotADowngrade: a peer on another frame version
// — a server that reads this uplink's frames as unknown, as this build
// reads the 0x01 frames it replaced — refuses each with the version it
// found, on the stream it did upgrade. That is a refusal, not a
// negotiation: the uplink returns it as it is, posts nothing as JSON,
// latches nothing and counts no downgrade. Only a refused upgrade says
// "speak JSON".
func TestUnknownFrameVersionIsNotADowngrade(t *testing.T) {
	var mu sync.Mutex
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case wire.UplinkPath:
			serveUplink(t, w, r, func(_ uint64, frame []byte) []byte {
				mu.Lock()
				got = append(got, "frame")
				mu.Unlock()
				if len(frame) == 0 || frame[0] != wire.Version {
					t.Errorf("the uplink sent version 0x%02x, want 0x%02x", frame[:1], wire.Version)
				}
				body := bytes.Clone(frame)
				body[0] = 0x01 // what the frame reads as on the other side of the version change
				err := wire.DecodeFrame(body, new(wire.Batch))
				return reply(wire.StreamRejected, []byte(fmt.Sprintf("decode frame: %v", err)))
			})
		case BatchPath:
			mu.Lock()
			got = append(got, "json")
			mu.Unlock()
			w.Write([]byte(`{"rooms":[]}`))
		default:
			http.NotFound(w, r) // no ring: the uplink sends plain frames
		}
	}))
	defer ts.Close()
	met := obs.New()
	Instrument(met)
	rec := &sleepRecorder{}
	u := &HTTPUplink{BaseURL: ts.URL, Retry: retryPolicy(rec, 3), Codec: CodecBinary}
	for i := 0; i < 2; i++ {
		err := u.SendBatch(wireReports(4))
		if v := Classify(err); !v.Answered || codeOf(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "unknown frame version 0x01") {
			t.Fatalf("send %d: %v, want the 400 naming the version", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"frame", "frame"}; !reflect.DeepEqual(got, want) {
		t.Errorf("the target took %q, want two frames and no JSON", got)
	}
	if u.targets[0].jsonOnly.Load() || len(rec.delays) != 0 {
		t.Errorf("JSON latch %v, %d backoff sleeps after a 400", u.targets[0].jsonOnly.Load(), len(rec.delays))
	}
	snap := met.TakeSnapshot().Counters
	if d, j := snap["transport_wire_downgrades_total"], snap[`transport_wire_batches_total{codec="json"}`]; d != 0 || j != 0 {
		t.Errorf("%v downgrades and %v JSON uploads, want none", d, j)
	}
}

// TestRefusedUpgradeLatchesJSON: a target without the upload stream — it
// answers the upgrade 404, as a server that predates the stream does —
// is spoken JSON from then on, by every sender sharing the uplink, after
// one downgrade counted however many senders met the refusal at once. A
// target that fails the upgrade — a draining one answers 503 — is not
// latched: that is its failure, not its protocol, and the upload fails as
// a POST to it would have.
func TestRefusedUpgradeLatchesJSON(t *testing.T) {
	var upgrades, posts atomic.Int64
	release := make(chan struct{})
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case wire.UplinkPath:
			upgrades.Add(1)
			<-release // hold every sender's upgrade until all have asked
			http.NotFound(w, r)
		case BatchPath:
			posts.Add(1)
			io.Copy(io.Discard, r.Body)
			w.Write([]byte(`{"rooms":[]}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer old.Close()
	met := obs.New()
	Instrument(met)
	u := &HTTPUplink{BaseURL: old.URL, Codec: CodecBinary}
	const senders = 8
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := u.SendBatch(wireReports(4)); err != nil {
				t.Errorf("sender %d: %v", s, err)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); upgrades.Load() < senders && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := u.SendBatch(wireReports(4)); err != nil {
		t.Fatal(err)
	}
	if upgrades.Load() != senders || posts.Load() != senders+1 {
		t.Errorf("%d upgrades asked for and %d JSON posts, want %d and %d: one refusal per sender that met it, JSON after",
			upgrades.Load(), posts.Load(), senders, senders+1)
	}
	snap := met.TakeSnapshot().Counters
	if d := snap["transport_wire_downgrades_total"]; d != 1 || !u.targets[0].jsonOnly.Load() {
		t.Errorf("%v downgrades counted, latch %v; want exactly one, latched", d, u.targets[0].jsonOnly.Load())
	}

	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.UplinkPath {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		http.NotFound(w, r)
	}))
	defer draining.Close()
	rec := &sleepRecorder{}
	u = &HTTPUplink{BaseURL: draining.URL, Retry: retryPolicy(rec, 2), Codec: CodecBinary}
	err := u.SendBatch(wireReports(4))
	if v := Classify(err); v.Class != Unavailable || codeOf(err) != http.StatusServiceUnavailable || !errors.Is(err, ErrUpgradeRefused) {
		t.Fatalf("an upgrade answered 503: %v (%+v)", err, v)
	}
	if u.targets[0].jsonOnly.Load() || len(rec.delays) != 1 {
		t.Errorf("latch %v after a 503, %d backoff sleeps; want none and the one a POST's 503 costs", u.targets[0].jsonOnly.Load(), len(rec.delays))
	}
}

// TestRingRefreshDoesNotParkSenders: the refresh of a ring view is one
// sender's errand. While it hangs — the target stopped answering — every
// other sender sharing the uplink goes on with the view it holds.
func TestRingRefreshDoesNotParkSenders(t *testing.T) {
	defer func(d time.Duration) { ringRefresh = d }(ringRefresh)
	ringRefresh = 0 // every send finds its view due

	gw := newFrontend(t, "ring")
	gw.holdRing, gw.ringAsked = make(chan struct{}), make(chan struct{}, 1)
	u := &HTTPUplink{BaseURL: gw.ts.URL, Codec: CodecBinary}
	if err := u.SendBatch(wireReports(8)); err != nil { // waits for the first view
		t.Fatal(err)
	}

	refresher := make(chan error, 1)
	go func() { refresher <- u.SendBatch(wireReports(8)) }()
	<-gw.ringAsked // the second ring fetch is now hanging

	other := make(chan error, 1)
	go func() { other <- u.SendBatch(wireReports(8)) }()
	var err error
	select {
	case err = <-other:
		close(gw.holdRing)
	case <-time.After(3 * time.Second):
		t.Error("a sender was parked behind another sender's ring refresh")
		close(gw.holdRing)
		err = <-other
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := <-refresher; err != nil {
		t.Fatal(err)
	}
	if got, want := gw.forms(), []string{"sections", "sections", "sections"}; !reflect.DeepEqual(got, want) {
		t.Errorf("the gateway received %v, want %v", got, want)
	}
}

// ringRT answers GET /api/v1/ring itself, upgrades the upload stream onto
// an in-memory connection that acknowledges every envelope, and hands
// everything else to the scripted transport.
type ringRT struct {
	scriptedRT
	ring []byte
}

func (rt *ringRT) RoundTrip(req *http.Request) (*http.Response, error) {
	switch req.URL.Path {
	case "/api/v1/ring":
		code, body := http.StatusOK, rt.ring
		if body == nil {
			code = http.StatusNotFound
		}
		return &http.Response{StatusCode: code, Body: io.NopCloser(strings.NewReader(string(body))), ContentLength: int64(len(body)), Request: req}, nil
	case wire.UplinkPath:
		return &http.Response{
			StatusCode: http.StatusSwitchingProtocols, Status: "101 Switching Protocols",
			Header: http.Header{"Upgrade": {wire.UplinkProtocol}}, Body: &ackConn{ack: reply(wire.StreamOK, []byte("\x0b\x07kitchen"))}, Request: req,
		}, nil
	}
	return rt.scriptedRT.RoundTrip(req)
}

// ackConn is an upgraded connection whose peer answers every envelope
// written to it with ack, allocating nothing.
type ackConn struct {
	ack []byte
	rd  bytes.Reader
}

func (c *ackConn) Write(p []byte) (int, error) { c.rd.Reset(c.ack); return len(p), nil }
func (c *ackConn) Read(p []byte) (int, error)  { return c.rd.Read(p) }
func (c *ackConn) Close() error                { return nil }

// TestAllocBudgetUplinkSend pins what a warm send costs in each form, and
// that following leadership costs nothing while nothing fails: a second,
// idle target adds no allocation. A binary send — encode, pre-split, one
// envelope on the stream — allocates nothing at all; a JSON one is pinned
// outside Client.Do, which is net/http's.
func TestAllocBudgetUplinkSend(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	ringBody, err := json.Marshal(RingInfo{Digest: testDigest, Replicas: testRing.Replicas(), Shards: testShards})
	if err != nil {
		t.Fatal(err)
	}
	crowd := make([]Report, 64)
	for i := range crowd {
		crowd[i] = budgetBatch()[i%11]
		crowd[i].Device = fmt.Sprintf("phone-%02d", i)
	}
	for _, pin := range []struct {
		name    string
		codec   Codec
		ring    []byte
		reports []Report
		budget  float64
	}{
		{"presplit/11", CodecBinary, ringBody, budgetBatch(), 0},
		{"presplit/64x64", CodecBinary, ringBody, crowd, 0},
		{"frame/11", CodecBinary, nil, budgetBatch(), 0},
		{"json/64", CodecJSON, nil, crowd, 5},
	} {
		for _, peers := range [][]string{nil, {"http://standby.test"}} {
			rt := &ringRT{scriptedRT: scriptedRT{codes: []int{http.StatusOK}, ack: []byte("\x0b\x07kitchen"), quiet: true}, ring: pin.ring}
			client := &http.Client{Transport: rt}
			u := &HTTPUplink{BaseURL: "http://gateway.test", Peers: peers, Client: client, Codec: pin.codec}
			send := func() {
				if err := u.SendBatch(pin.reports); err != nil {
					t.Fatal(err)
				}
			}
			send() // the ring view, the prepared targets, the stream, the pools
			total := testing.AllocsPerRun(100, send)
			if pin.codec == CodecBinary {
				if rt.calls != 0 {
					t.Fatalf("%s: %d POSTs; a binary upload rides the stream", pin.name, rt.calls)
				}
				t.Logf("%s, %d peer(s): %v allocations", pin.name, len(peers), total)
				if total > pin.budget {
					t.Errorf("%s, %d peer(s): a warm send on the stream allocates %v times, budget %v", pin.name, len(peers), total, pin.budget)
				}
				continue
			}

			// What Client.Do costs on a request already built: not ours.
			var rd strings.Reader
			req, err := http.NewRequest(http.MethodPost, "http://gateway.test"+BatchPath, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header, req.Body, req.ContentLength = jsonHeader, io.NopCloser(&rd), 1
			clientDo := testing.AllocsPerRun(100, func() {
				rd.Reset("x")
				resp, err := client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			})
			t.Logf("%s, %d peer(s): %v allocations outside Client.Do", pin.name, len(peers), total-clientDo)
			if ours := total - clientDo; ours > pin.budget {
				t.Errorf("%s, %d peer(s): a warm send allocates %v times outside Client.Do (%v with it), budget %v",
					pin.name, len(peers), ours, total, pin.budget)
			}
		}
	}
}

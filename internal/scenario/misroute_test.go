package scenario

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/obs"
	"occusim/internal/ring"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// forger is a device that pre-splits its binary uploads against the
// gateway's current digest but files its reports in a shard's section
// the ring does not give them to.
type forger struct {
	url    string
	forged atomic.Int64
}

func (f *forger) Name() string                { return "forger" }
func (f *forger) Send(transport.Report) error { panic("the driver sends whole batches") }

func (f *forger) SendBatch(reports []transport.Report) error {
	r, owner, hdr, err := currentRing(f.url, reports[0].Device)
	if err != nil {
		return err
	}
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := transport.EncodeReports(b, reports); err != nil {
		return err
	}
	body := wire.AppendSection(nil, r.Names()[(owner+1)%r.Members()])
	body = wire.AppendFrame(body, b)
	if err := postSplit(f.url, body, hdr); err != nil {
		return err
	}
	f.forged.Add(1)
	return nil
}

// currentRing fetches the gateway's routing table as a pre-splitting
// device does, and resolves the shard that owns device. hdr is the header
// set of an upload split against it.
func currentRing(url, device string) (r *ring.Ring, owner int, hdr http.Header, err error) {
	payload, err := transport.GetJSON(nil, url+"/api/v1/ring", transport.RetryPolicy{})
	if err != nil {
		return nil, 0, nil, err
	}
	var info transport.RingInfo
	if err := json.Unmarshal(payload, &info); err != nil {
		return nil, 0, nil, err
	}
	if r, err = ring.New(info.Shards, info.Replicas); err != nil {
		return nil, 0, nil, err
	}
	if owner, err = r.Owner(device, info.Down); err != nil {
		return nil, 0, nil, err
	}
	return r, owner, http.Header{"Content-Type": {wire.ContentType}, wire.HeaderRingDigest: {info.Digest}}, nil
}

// postSplit posts a pre-split upload to the gateway at url as a device
// does, under hdr: the wire content type and the digest it split
// against, which the client's transport sets on the JSON exchange.
func postSplit(url string, body []byte, hdr http.Header) error {
	client := &http.Client{Transport: withHeader{hdr}, Timeout: 5 * time.Second}
	_, err := transport.DoJSON(client, http.MethodPost, url+transport.BatchPath, body, transport.RetryPolicy{})
	return err
}

type withHeader struct{ hdr http.Header }

func (w withHeader) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header = w.hdr
	return http.DefaultTransport.RoundTrip(req)
}

// badRefForger is a device that pre-splits each binary upload honestly
// against the gateway's current digest, but first sends it with one more
// report behind its own, whose beacon refers one past the payload's
// identity table. Only when that upload is refused does it send the
// honest one.
type badRefForger struct {
	url             string
	forged, refused atomic.Int64
}

func (f *badRefForger) Name() string                { return "bad-ref forger" }
func (f *badRefForger) Send(transport.Report) error { panic("the driver sends whole batches") }

func (f *badRefForger) SendBatch(reports []transport.Report) error {
	r, owner, hdr, err := currentRing(f.url, reports[0].Device)
	if err != nil {
		return err
	}
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := transport.EncodeReports(b, reports); err != nil {
		return err
	}
	idents := map[string]bool{}
	for _, rep := range reports {
		for _, bc := range rep.Beacons {
			idents[bc.ID] = true
		}
	}
	var c wire.Coder
	body := wire.AppendSection(nil, r.Names()[owner])
	head := len(body)
	body = c.BeginPayload(wire.BeginFrame(body), b.Len()+1)
	for i := 0; i < b.Len(); i++ {
		body = c.AppendReport(body, b, i)
	}
	// The same device again (0), its time, epoch and sequence stamps, one
	// beacon: a reference to entry len(idents)+1, then its distance and
	// RSSI bits.
	body = binary.LittleEndian.AppendUint64(append(body, 0), math.Float64bits(reports[len(reports)-1].AtSeconds))
	body = append(body, 1, 1, 1, byte(len(idents)+1))
	body = append(body, make([]byte, 16)...)
	wire.EndFrame(body, head)
	f.forged.Add(1)
	err = postSplit(f.url, body, hdr)
	var answer *transport.Error
	if !errors.As(err, &answer) || transport.Classify(err).Class != transport.Rejected || answer.Code != http.StatusBadRequest ||
		!strings.Contains(err.Error(), "pre-split section") {
		return fmt.Errorf("a forged back-reference was answered %v, want the gateway's own 400", err)
	}
	f.refused.Add(1)

	honest := wire.AppendFrame(wire.AppendSection(nil, r.Names()[owner]), b)
	return postSplit(f.url, honest, hdr)
}

// TestMisrouteCrowd: every fourth device forges its binary uploads — a
// section under the gateway's current digest that names a shard the ring
// does not give the device to — and every fourth device, another quarter,
// first sends each upload with a beacon back-reference past the payload's
// identity table, beside honest pre-splitting devices, through the
// gateway's HTTP face. The gateway must re-split each misrouted upload
// itself, refuse each bad reference whole with a 400 before any shard
// hears of it, and the fleet must end byte-identical to the reference.
func TestMisrouteCrowd(t *testing.T) {
	b := building.PaperHouse()
	cfg := Config{Devices: 12, Reports: 48, Seed: 21}
	tr, err := Clean().Generate(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Shards: 3, Loopback: true, Metrics: obs.New()}
	f, err := Build(b, spec, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Sinks: 0 honest, 1 the misrouting forger, 2 the bad-ref forger.
	uploads := 0
	for d, lane := range tr.Lanes {
		uploads += len(lane.Batches)
		for i := range lane.Batches {
			lane.Batches[i].Gateway = []int{1, 2, 0, 0}[d%4]
		}
	}
	forge := &forger{url: f.URL}
	badRef := &badRefForger{url: f.URL}
	honest := &transport.HTTPUplink{BaseURL: f.URL, Retry: transport.DefaultRetry(), Codec: transport.CodecBinary}
	if _, err := (Driver{}).Drive(tr.Lanes, honest, forge, badRef); err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(f.Gateways[0], Exact, tr.Honest); err != nil {
		t.Fatal(err)
	}
	counters := spec.Metrics.TakeSnapshot().Counters
	forged := forge.forged.Load()
	if forged == 0 || counters["fleet_presplit_misroute_total"] != float64(forged) {
		t.Fatalf("%v misrouted uploads counted for %d forged, want as many and more than 0",
			counters["fleet_presplit_misroute_total"], forged)
	}
	if counters["fleet_presplit_forwarded_total"] == 0 {
		t.Fatal("no honest upload was forwarded pre-split: the crowd did not pre-split")
	}
	if n := badRef.forged.Load(); n == 0 || badRef.refused.Load() != n {
		t.Fatalf("%d bad references refused for %d forged, want as many and more than 0", badRef.refused.Load(), n)
	}
	// Every upload is one device's, so each that landed is one frame on
	// one shard's stream; a refused one is none.
	if got := counters["bms_stream_frames_total"]; got != float64(uploads) {
		t.Fatalf("the shards took %v frames for %d uploads: a refused upload reached a shard", got, uploads)
	}
}

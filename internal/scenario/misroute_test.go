package scenario

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"occusim/internal/building"
	"occusim/internal/fleet"
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
	payload, err := transport.GetJSON(nil, f.url+"/api/v1/ring", transport.RetryPolicy{})
	if err != nil {
		return err
	}
	var info fleet.RingInfo
	if err := json.Unmarshal(payload, &info); err != nil {
		return err
	}
	r, err := ring.New(info.Shards, info.Replicas)
	if err != nil {
		return err
	}
	owner, err := r.Owner(reports[0].Device, info.Down)
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
	hdr := http.Header{"Content-Type": {wire.ContentType}, wire.HeaderRingDigest: {info.Digest}}
	if _, err := transport.DoJSONHeaders(nil, http.MethodPost, f.url+transport.BatchPath, body, hdr, transport.RetryPolicy{}); err != nil {
		return err
	}
	f.forged.Add(1)
	return nil
}

// TestMisrouteCrowd: every fourth device forges its binary uploads — a
// section under the gateway's current digest that names a shard the ring
// does not give the device to — beside honest pre-splitting devices,
// through the gateway's HTTP face. The gateway must re-split each forged
// upload itself, and the fleet must end byte-identical to the reference.
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
	for d, lane := range tr.Lanes {
		if d%4 == 0 {
			for i := range lane.Batches {
				lane.Batches[i].Gateway = 1
			}
		}
	}
	forge := &forger{url: f.URL}
	honest := &transport.HTTPUplink{BaseURL: f.URL, Retry: transport.DefaultRetry(), Codec: transport.CodecBinary}
	if _, err := (Driver{}).Drive(tr.Lanes, honest, forge); err != nil {
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
}

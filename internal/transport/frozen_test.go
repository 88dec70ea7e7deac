package transport_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"occusim/internal/building"
	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/transport"
)

// TestFrozenShardSplitterIsBinaryUplink: one crowd driven through a
// ShardSplitter and through &HTTPUplink{Codec: CodecBinary}, each against
// one loopback gateway, lands the same fleet state by the same path —
// every upload pre-split and forwarded verbatim.
func TestFrozenShardSplitterIsBinaryUplink(t *testing.T) {
	b := building.PaperHouse()
	cfg := scenario.Config{Devices: 8, Reports: 33, Seed: 19}
	tr, err := scenario.Clean().Generate(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var landed [2][]byte
	var forwarded [2]float64
	for i, sinkAt := range []func(url string) scenario.Sink{
		func(url string) scenario.Sink {
			return &transport.ShardSplitter{BaseURL: url, Retry: transport.DefaultRetry()}
		},
		func(url string) scenario.Sink {
			return &transport.HTTPUplink{BaseURL: url, Retry: transport.DefaultRetry(), Codec: transport.CodecBinary}
		},
	} {
		spec := scenario.Spec{Shards: 3, Loopback: true, Metrics: obs.New()}
		f, err := scenario.Build(b, spec, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := (scenario.Driver{}).Drive(tr.Lanes, sinkAt(f.URL)); err != nil {
			t.Fatal(err)
		}
		if err := f.Verify(f.Gateways[0], scenario.Exact, tr.Honest); err != nil {
			t.Fatal(err)
		}
		occ, err := f.Gateways[0].Occupancy()
		if err != nil {
			t.Fatal(err)
		}
		evs, err := f.Gateways[0].Events()
		if err != nil {
			t.Fatal(err)
		}
		if landed[i], err = json.Marshal([]any{occ, evs}); err != nil {
			t.Fatal(err)
		}
		forwarded[i] = spec.Metrics.TakeSnapshot().Counters["fleet_presplit_forwarded_total"]
	}
	if !bytes.Equal(landed[0], landed[1]) {
		t.Fatalf("the ShardSplitter landed\n%s\nthe binary HTTPUplink\n%s", landed[0], landed[1])
	}
	if forwarded[0] == 0 || forwarded[0] != forwarded[1] {
		t.Fatalf("%v uploads forwarded pre-split through the ShardSplitter, %v through the binary HTTPUplink; want as many and more than 0",
			forwarded[0], forwarded[1])
	}
}

package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"occusim/internal/building"
	"occusim/internal/obs"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// TestOutcomeIndependentOfShardCount pins the federation contract at
// workload level: the committed occupancy state is a pure function of
// the streams, so neither resharding nor the transport nor a crash may
// change it. The clean crowd over every fleet shape the harness builds
// ends byte-identical to one reference, and a binary device leg has the
// gateway forward pre-split sections unopened.
func TestOutcomeIndependentOfShardCount(t *testing.T) {
	b := building.PaperHouse()
	cfg := Config{Devices: 12, Reports: 48, Seed: 21}
	clean, err := Clean().Generate(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(b, clean.Honest, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		for _, shape := range []string{"local", "http-json", "http-binary", "durable-crashed"} {
			t.Run(fmt.Sprintf("%s/%d", shape, shards), func(t *testing.T) {
				t.Parallel()
				tr, err := Clean().Generate(b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				spec := Spec{Shards: shards}
				switch shape {
				case "http-json":
					spec.Loopback = true
				case "http-binary":
					spec.Loopback, spec.Metrics = true, obs.New()
				case "durable-crashed":
					spec.Dir, spec.Policy = t.TempDir(), store.FsyncBatch
				}
				f, err := Build(b, spec, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				sinks := f.Sinks()
				if spec.Loopback {
					codec := transport.CodecJSON
					if shape == "http-binary" {
						codec = transport.CodecBinary
					}
					sinks = []Sink{&transport.HTTPUplink{BaseURL: f.URL, Retry: transport.DefaultRetry(), Codec: codec}}
				}
				if _, err := (Driver{}).Drive(tr.Lanes, sinks...); err != nil {
					t.Fatal(err)
				}
				if shape == "durable-crashed" {
					// No Close: the crash. A second fleet over the same
					// directories recovers from the log alone.
					if f, err = Build(b, spec, cfg.Seed); err != nil {
						t.Fatal(err)
					}
				}
				defer f.Close()
				if err := VerifyExact(f.Gateways[0], ref); err != nil {
					t.Fatal(err)
				}
				if shape == "http-binary" {
					counters := spec.Metrics.TakeSnapshot().Counters
					if counters["fleet_presplit_forwarded_total"] == 0 || counters["fleet_presplit_digest_miss_total"] != 0 {
						t.Fatalf("pre-split forwarded %v uploads with %v digest misses, want > 0 and 0",
							counters["fleet_presplit_forwarded_total"], counters["fleet_presplit_digest_miss_total"])
					}
				}
			})
		}
	}
}

// TestSameSeedSameOutcome pins that the occupancy outcome is independent
// of goroutine scheduling: two runs of one seed agree on everything but
// the driver's timings, though ingest interleaves differently.
func TestSameSeedSameOutcome(t *testing.T) {
	cfg := Config{Devices: 10, Reports: 150, Shards: 1, Seed: 21}
	a, err := Run(Clean(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Clean(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Driven = &Driven{Unique: a.Unique, Sent: a.Sent, Exchanges: a.Exchanges, AckedExchanges: a.AckedExchanges, Acked: a.Acked}
	b.Driven = &Driven{Unique: b.Unique, Sent: b.Sent, Exchanges: b.Exchanges, AckedExchanges: b.AckedExchanges, Acked: b.Acked}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("outcome depends on scheduling:\n  %+v\n  %+v", a, b)
	}
}

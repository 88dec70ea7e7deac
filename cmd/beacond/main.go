// Command beacond simulates the physical deployment — beacon boards plus
// phones carried by occupants — and posts the phones' ranging reports to
// a running bmsd over real HTTP, exercising the full networked path:
//
//	go run ./cmd/bmsd  -addr :8080 -plan paper-house &
//	go run ./cmd/beacond -server http://127.0.0.1:8080 -phones 3 -duration 2m
//
// After the run it queries the server's occupancy endpoint and prints the
// result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"occusim/internal/building"
	"occusim/internal/core"
	"occusim/internal/geom"
	"occusim/internal/mobility"
	"occusim/internal/rng"
	"occusim/internal/transport"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8080", "bmsd base URL")
	phones := flag.Int("phones", 3, "number of simulated occupants")
	duration := flag.Duration("duration", 2*time.Minute, "simulated duration")
	seed := flag.Uint64("seed", 1, "random seed")
	batch := flag.Float64("batch", 10, "coalesce each phone's reports for this many seconds before posting to the batch endpoint (0 posts per report)")
	epoch := flag.Uint64("epoch", 1, "device epoch stamped on sequenced reports (bump after a counter-losing restart)")
	wireCodec := flag.String("wire", "json", "batch encoding: json, or binary (wire frames: pre-split per shard where the server publishes a ring with a digest, one plain frame where it does not, each upload one envelope on an upgraded stream; JSON for good once the server refuses the upgrade)")
	flag.Parse()
	codec, err := transport.ParseCodec(*wireCodec)
	if err != nil {
		log.Fatal(err)
	}

	b := building.PaperHouse()
	scn, err := core.NewScenario(core.ScenarioConfig{Building: b, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	// Retransmit transient failures: with every report sequenced, the
	// server dedupes a delivery whose response was lost, so the retry
	// policy cannot double-count occupants.
	httpUplink := &transport.HTTPUplink{BaseURL: *serverURL, Retry: transport.DefaultRetry(), Codec: codec}
	sequencer := transport.NewSequencer(*epoch)

	src := rng.New(*seed)
	var flushAtEnd []*transport.BatchingUplink
	for i := 0; i < *phones; i++ {
		tour, err := mobility.NewTour(roomRects(b), mobility.DefaultWalk(), *duration, src.Split(uint64(i)))
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("phone-%d", i+1)
		var uplink transport.Uplink = stampedUplink{seq: sequencer, next: httpUplink}
		if *batch > 0 {
			bu, err := transport.NewBatchingUplink(httpUplink, transport.BatchConfig{
				FlushSeconds: *batch,
				Sequencer:    sequencer,
			})
			if err != nil {
				log.Fatal(err)
			}
			flushAtEnd = append(flushAtEnd, bu)
			uplink = bu
		}
		if _, err := scn.AddPhone(name, tour, core.PhoneConfig{Uplink: uplink}); err != nil {
			log.Fatal(err)
		}
	}

	log.Printf("beacond: %d beacons advertising, %d phones walking for %v, reporting to %s (batch window %.0fs)",
		len(b.Beacons), *phones, *duration, *serverURL, *batch)
	scn.Run(*duration)
	for _, bu := range flushAtEnd {
		if err := bu.Flush(); err != nil {
			log.Printf("beacond: final flush: %v", err)
		}
	}

	resp, err := http.Get(*serverURL + "/api/v1/occupancy")
	if err != nil {
		log.Fatalf("beacond: occupancy query: %v", err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		log.Fatalf("beacond: decode occupancy: %v", err)
	}
	out, _ := json.MarshalIndent(snap, "", "  ")
	fmt.Fprintln(os.Stdout, string(out))
}

// stampedUplink sequences each report before posting — the unbatched
// (-batch 0) path's equivalent of the batching uplink's Sequencer.
type stampedUplink struct {
	seq  *transport.Sequencer
	next transport.Uplink
}

func (s stampedUplink) Name() string { return s.next.Name() }

func (s stampedUplink) Send(r transport.Report) error {
	s.seq.Stamp(&r)
	return s.next.Send(r)
}

// roomRects lists the walkable areas of the plan.
func roomRects(b *building.Building) []geom.Rect {
	out := make([]geom.Rect, 0, len(b.Rooms))
	for _, r := range b.Rooms {
		out = append(out, r.Bounds)
	}
	return out
}

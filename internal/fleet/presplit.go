// Pre-split forwarding: the gateway-side half of the device pre-split
// protocol. A device that fetched the routing table (GET /api/v1/ring)
// splits its batch per shard on its own CPU, encodes one wire frame
// per owner, and uploads the sections with the ring digest it split
// against. When that digest still matches the gateway's, the gateway
// skips its decode → hash → split → re-encode pipeline entirely and
// forwards each section's frame to its shard verbatim — the bytes the
// device encoded are the bytes the shard decodes. Everything the
// gateway normally guarantees is preserved: admission control, the
// migration fence pause, device registration for rebalance and TTL
// sweeps, per-shard breakers and telemetry, and the misbehaving-shard
// rooms check. A stale digest (routing flipped since the device
// fetched the ring) rejects with ErrPresplitMismatch and the HTTP face
// falls back to decode + IngestBatch — correctness never depends on
// device-side freshness.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"occusim/internal/wire"
)

// FrameIngester is the optional fast-path capability of a Shard: ingest
// a verbatim wire frame carrying the given report count, returning the
// predicted room per report in frame order. LocalShard and HTTPShard
// implement it; a shard that does not (a test double, an old client)
// fails the type assertion and the gateway falls back to the decoded
// path for the whole upload.
type FrameIngester interface {
	IngestFrame(frame []byte, reports int) ([]string, error)
}

// PresplitSection is one shard's slice of a device-split upload:
// the shard name the device resolved and that shard's wire frame.
// Frame and Payload alias the request body; IngestPresplit does not
// retain them past the call.
type PresplitSection struct {
	Shard   string
	Frame   []byte
	Payload []byte
}

// ErrPresplitMismatch rejects a pre-split upload the gateway cannot
// forward verbatim: the digest is stale (routing changed since the
// device fetched the ring), a named shard is unknown, a shard cannot
// ingest frames, or skew correction is enabled (it must see every
// report's timestamp before routing). The caller decodes and takes the
// ordinary IngestBatch path — the upload is never lost.
var ErrPresplitMismatch = errors.New("fleet: pre-split upload does not match routing")

// uploadScratch is the working memory of one gateway ingest call,
// whichever way the upload was split: the sections the HTTP face scanned
// out of a pre-split body, what the metadata pass learns about the
// upload's devices, and the per-shard deliveries. Pooled; release drops
// every string and slice it points at.
type uploadScratch struct {
	secs []PresplitSection
	out  []delivery
	// devices are the upload's devices — distinct, in first-seen order,
	// for a pre-split scan (seen indexes them); one entry per report for
	// a server-side split — and counts the reports each entry stands for.
	devices []string
	counts  []int
	seen    map[string]int
	maxAt   float64
	flat    []string // the HTTP face's ack: rooms in section order
	// wg waits for dispatch's concurrent deliveries; kept here so a
	// one-section upload allocates nothing for it.
	wg sync.WaitGroup
}

var uploadPool = sync.Pool{New: func() any { return &uploadScratch{seen: map[string]int{}} }}

func getUploadScratch() *uploadScratch { return uploadPool.Get().(*uploadScratch) }

// pooledUploadMax keeps the scratch of a one-off giant upload (and its
// grown seen map) out of the pool.
const pooledUploadMax = 4096

func (sc *uploadScratch) release() {
	if len(sc.devices) > pooledUploadMax || len(sc.flat) > pooledUploadMax {
		return
	}
	clear(sc.secs)
	clear(sc.out)
	clear(sc.devices)
	clear(sc.seen)
	clear(sc.flat)
	sc.secs, sc.out, sc.devices, sc.counts, sc.flat = sc.secs[:0], sc.out[:0], sc.devices[:0], sc.counts[:0], sc.flat[:0]
	sc.maxAt = 0
	uploadPool.Put(sc)
}

// sized returns s at length n, zeroed.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// IngestPresplit forwards a device-split upload, one frame per shard,
// without decoding the beacon payloads. Returns the rooms per section
// (section order, report order within). Admission, fences, device
// registration, breakers and telemetry behave exactly as IngestBatch.
func (g *Gateway) IngestPresplit(digest string, sections []PresplitSection) ([][]string, error) {
	sc := getUploadScratch()
	defer sc.release()
	if err := g.forward(digest, sections, sc); err != nil || len(sections) == 0 {
		return nil, err
	}
	rooms := make([][]string, len(sc.out))
	for k := range sc.out {
		rooms[k] = sc.out[k].rooms
	}
	return rooms, nil
}

// forward is IngestPresplit on the caller's scratch: on success
// sc.out[k].rooms answers section k.
func (g *Gateway) forward(digest string, sections []PresplitSection, sc *uploadScratch) error {
	if len(sections) == 0 {
		return nil
	}
	if g.skew != nil {
		// Skew correction rewrites timestamps before routing; a verbatim
		// forward would bypass it. Fall back to the decoded path.
		return ErrPresplitMismatch
	}
	sc.out = sized(sc.out, len(sections))
	for k := range sections {
		idx, ok := g.byName[sections[k].Shard]
		if !ok {
			return ErrPresplitMismatch
		}
		if _, ok := g.shards[idx].(FrameIngester); !ok {
			return ErrPresplitMismatch
		}
		sc.out[k].idx, sc.out[k].frame = idx, sections[k].Frame
	}
	admit, err := g.gate.Acquire()
	if err != nil {
		return err
	}
	defer admit()

	gm := g.met
	var splitStart time.Time
	if gm != nil {
		splitStart = time.Now()
	}
	// One metadata pass per section: device names, per-device in-flight
	// counts and the report-clock high-water mark — everything a
	// server-side split learns from decoded reports, read from the frame
	// headers without touching the beacon payloads. The registry is held
	// across the pass so a device it already knows resolves to the
	// registry's own string.
	total := 0
	g.devMu.Lock()
	for k := range sections {
		n, err := wire.ScanReports(sections[k].Payload, func(device []byte, at float64, _, _ uint64) error {
			sc.maxAt = max(sc.maxAt, at)
			if i, ok := sc.seen[string(device)]; ok {
				sc.counts[i]++
				return nil
			}
			d, ok := g.known[string(device)]
			if !ok {
				d = string(device)
			}
			sc.seen[d] = len(sc.devices)
			sc.devices = append(sc.devices, d)
			sc.counts = append(sc.counts, 1)
			return nil
		})
		if err != nil {
			g.devMu.Unlock()
			return fmt.Errorf("fleet: pre-split section %q: %w", sections[k].Shard, err)
		}
		sc.out[k].n = n
		total += n
	}
	g.devMu.Unlock()
	if gm != nil {
		gm.batchSize.Observe(int64(total))
	}
	err = g.acquire(sc.devices, sc.counts, sc.maxAt, func() error {
		if g.digest != digest {
			return ErrPresplitMismatch
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer g.release(sc.devices, sc.counts)
	if gm != nil {
		gm.splitTime.Since(splitStart)
	}
	if err := g.dispatch(sc); err != nil {
		return err
	}
	if gm != nil {
		gm.presplitForwarded.Inc()
	}
	return nil
}

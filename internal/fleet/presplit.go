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
// sweeps, telemetry, and the misbehaving-shard rooms check. A stale
// digest (routing flipped since the device fetched the ring), or a
// section that is not its shard's share by the gateway's own ring,
// rejects with ErrPresplitMismatch and the HTTP face falls back to
// decode + the server-side split — correctness never depends on the
// device's freshness or honesty.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"occusim/internal/ring"
	"occusim/internal/wire"
)

// PresplitSection is one shard's slice of a device-split upload:
// the shard name the device resolved and that shard's wire frame.
// Frame and Payload alias the request body; IngestPresplit does not
// retain them past the call.
type PresplitSection struct {
	Shard   string
	Frame   []byte
	Payload []byte
}

// ErrPresplitMismatch rejects a pre-split upload the gateway will not
// forward verbatim: the digest is stale (routing changed since the
// device fetched the ring), a named shard is unknown, a section holds a
// device its shard does not own, or skew correction is enabled (it must
// see every report's timestamp before routing). The caller decodes the
// sections and takes the server-side split — the upload is never lost.
var ErrPresplitMismatch = errors.New("fleet: pre-split upload does not match routing")

// errPresplitMisroute is the mismatch of an upload whose digest may be
// fresh but whose sections are not the ring's split: a device in a
// section of a shard that does not own it, a device in two sections, a
// shard named twice.
var errPresplitMisroute = fmt.Errorf("%w: a section is not its shard's share", ErrPresplitMismatch)

// uploadScratch is the working memory of one gateway ingest call,
// whichever way the upload was split: the sections the HTTP face scanned
// out of a pre-split body, what the metadata pass learns about the
// upload's devices, the server-side split's map and frame buffers, and
// the per-shard deliveries. Pooled; release drops every string and
// slice of the upload it points at.
type uploadScratch struct {
	secs []PresplitSection
	out  []delivery
	// devices are a pre-split upload's distinct devices in first-seen
	// order (seen indexes them), section the section each was found in,
	// and counts the reports each stands for; a server-side split counts
	// one per report of its batch instead.
	devices []string
	section []int32
	counts  []int
	seen    map[string]int
	maxAt   float64
	// The server-side split's cut: report i went to shard shardOf[i] as
	// report posOf[i] of frames[shardOf[i]], which keeps its capacity
	// from upload to upload; coders[s] is frame s's back-reference state,
	// since the cut writes the frames interleaved.
	shardOf, posOf []int32
	frames         [][]byte
	coders         []wire.Coder
	flat           []string // the rooms in upload order
	// wg waits for dispatch's concurrent deliveries; kept here so a
	// one-section upload allocates nothing for it.
	wg sync.WaitGroup
}

var uploadPool = sync.Pool{New: func() any { return &uploadScratch{seen: map[string]int{}} }}

func getUploadScratch() *uploadScratch { return uploadPool.Get().(*uploadScratch) }

// pooledUploadMax keeps the scratch of a one-off giant upload (and its
// grown seen map) out of the pool, pooledFrameMax a frame buffer one
// grew.
const (
	pooledUploadMax = 4096
	pooledFrameMax  = 1 << 20
)

func (sc *uploadScratch) release() {
	if len(sc.counts) > pooledUploadMax {
		return
	}
	for s, frame := range sc.frames {
		if cap(frame) > pooledFrameMax {
			sc.frames[s] = nil
		}
	}
	clear(sc.secs)
	clear(sc.out)
	clear(sc.devices)
	clear(sc.seen)
	clear(sc.flat)
	sc.secs, sc.out, sc.devices, sc.section, sc.counts, sc.flat = sc.secs[:0], sc.out[:0], sc.devices[:0], sc.section[:0], sc.counts[:0], sc.flat[:0]
	sc.shardOf, sc.posOf = sc.shardOf[:0], sc.posOf[:0]
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

// cut writes report i of b into the frame of shard shardOf[i], in batch
// order — so one device's reports keep their order inside its owner's
// frame — and leaves out[s] holding shard s's frame and report count
// (no frame for a shard that owns nothing of the upload) and posOf the
// way back: report i is report posOf[i] of its shard's frame.
func (sc *uploadScratch) cut(b *wire.Batch, shards int) {
	sc.out = sized(sc.out, shards)
	sc.posOf = sized(sc.posOf, len(sc.shardOf))
	for i, s := range sc.shardOf {
		sc.posOf[i] = int32(sc.out[s].n)
		sc.out[s].n++
	}
	for len(sc.frames) < shards {
		sc.frames = append(sc.frames, nil)
	}
	if len(sc.coders) < shards {
		sc.coders = make([]wire.Coder, shards)
	}
	for s := range sc.out {
		if d := &sc.out[s]; d.n > 0 {
			d.idx = s
			sc.frames[s] = sc.coders[s].BeginPayload(wire.BeginFrame(sc.frames[s][:0]), d.n)
		}
	}
	for i, s := range sc.shardOf {
		sc.frames[s] = sc.coders[s].AppendReport(sc.frames[s], b, i)
	}
	for s := range sc.out {
		if d := &sc.out[s]; d.n > 0 {
			wire.EndFrame(sc.frames[s], 0)
			d.frame = sc.frames[s]
		}
	}
}

// IngestPresplit forwards a device-split upload, one frame per shard,
// without decoding the beacon payloads. Returns the rooms per section
// (section order, report order within). Admission, fences, device
// registration and telemetry behave exactly as IngestBatch.
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
// sc.out[k].rooms answers section k. A section is forwarded only to the
// shard the gateway's own ring gives every device in it: what the device
// says about ownership is checked, never trusted, or one client with a
// fresh digest could plant state on a shard no migration looks at. Each
// refusal is counted under its cause.
func (g *Gateway) forward(digest string, sections []PresplitSection, sc *uploadScratch) error {
	if len(sections) == 0 {
		return nil
	}
	gm := g.met
	if g.skew != nil {
		// Skew correction rewrites timestamps before routing; a verbatim
		// forward would bypass it. Fall back to the server-side split.
		if gm != nil {
			gm.presplitSkew.Inc()
		}
		return ErrPresplitMismatch
	}
	sc.out = sized(sc.out, len(sections))
	for k := range sections {
		idx, ok := g.byName[sections[k].Shard]
		if !ok {
			// A ring this gateway does not route by: its digest differs too.
			if gm != nil {
				gm.presplitDigestMiss.Inc()
			}
			return ErrPresplitMismatch
		}
		// Two frames to one shard could apply out of order, and the later
		// one's dedup would drop the earlier's reports while acking them.
		// (The first repeat ends the loop, so it never runs past one turn
		// per shard.)
		for j := range sc.out[:k] {
			if sc.out[j].idx == idx {
				return g.misrouted()
			}
		}
		sc.out[k].idx, sc.out[k].frame = idx, sections[k].Frame
	}
	admit, err := g.gate.Acquire()
	if err != nil {
		return err
	}
	defer admit()

	var splitStart time.Time
	if gm != nil {
		splitStart = time.Now()
	}
	// One metadata pass per section: device names, the section each was
	// found in, per-device in-flight counts and the report-clock
	// high-water mark — everything a server-side split learns from
	// decoded reports, read from the frame headers without touching the
	// beacon payloads. The registry is held across the pass so a device
	// it already knows resolves to the registry's own string.
	total := 0
	g.devMu.Lock()
	for k := range sections {
		n, err := wire.ScanReports(sections[k].Payload, func(device []byte, at float64, _, _ uint64) error {
			sc.maxAt = max(sc.maxAt, at)
			if i, ok := sc.seen[string(device)]; ok {
				if sc.section[i] != int32(k) {
					return errPresplitMisroute
				}
				sc.counts[i]++
				return nil
			}
			if len(device) == 0 {
				return errors.New("report without device")
			}
			d, ok := g.known[string(device)]
			if !ok {
				d = string(device)
			}
			sc.seen[d] = len(sc.devices)
			sc.devices = append(sc.devices, d)
			sc.section = append(sc.section, int32(k))
			sc.counts = append(sc.counts, 1)
			return nil
		})
		if err != nil {
			g.devMu.Unlock()
			if err == errPresplitMisroute {
				return g.misrouted()
			}
			return fmt.Errorf("fleet: pre-split section %q: %w", sections[k].Shard, err)
		}
		sc.out[k].n = n
		total += n
	}
	g.devMu.Unlock()
	err = g.acquire(sc.devices, sc.counts, sc.maxAt, func() error {
		if g.digest != digest {
			if gm != nil {
				gm.presplitDigestMiss.Inc()
			}
			return ErrPresplitMismatch
		}
		for i, d := range sc.devices {
			owner, err := g.ownerWith(g.down, ring.Hash64(d))
			if err != nil {
				return err
			}
			if owner != sc.out[sc.section[i]].idx {
				return g.misrouted()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer g.release(sc.devices, sc.counts)
	if gm != nil {
		gm.batchSize.Observe(int64(total))
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

// misrouted counts a pre-split upload refused for what its sections
// hold and returns the refusal.
func (g *Gateway) misrouted() error {
	if gm := g.met; gm != nil {
		gm.presplitMisroute.Inc()
	}
	return errPresplitMisroute
}

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
	"slices"
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

// forwardScratch is the working memory of one pre-split forward: the
// sections the HTTP face scanned out of the body, what the metadata pass
// learns about them, and the per-section results. Pooled; release drops
// every string and slice it points at.
type forwardScratch struct {
	secs    []PresplitSection
	idxOf   []int // section → shard index
	nOf     []int // section → report count
	rooms   [][]string
	errs    []error
	devices []string // distinct devices of the upload, first-seen order
	counts  []int    // reports per device
	seen    map[string]int
	maxAt   float64
	flat    []string // the HTTP face's ack: rooms in section order
}

var forwardPool = sync.Pool{New: func() any { return &forwardScratch{seen: map[string]int{}} }}

func getForwardScratch() *forwardScratch { return forwardPool.Get().(*forwardScratch) }

// pooledForwardMax keeps the scratch of a one-off giant upload (and its
// grown seen map) out of the pool.
const pooledForwardMax = 4096

func (sc *forwardScratch) release() {
	if len(sc.devices) > pooledForwardMax || len(sc.flat) > pooledForwardMax {
		return
	}
	clear(sc.secs)
	clear(sc.rooms)
	clear(sc.errs)
	clear(sc.devices)
	clear(sc.seen)
	clear(sc.flat)
	sc.secs, sc.devices, sc.counts, sc.flat = sc.secs[:0], sc.devices[:0], sc.counts[:0], sc.flat[:0]
	sc.maxAt = 0
	forwardPool.Put(sc)
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
	sc := getForwardScratch()
	defer sc.release()
	rooms, err := g.forward(digest, sections, sc)
	return slices.Clone(rooms), err
}

// forward is IngestPresplit on the caller's scratch; the returned outer
// slice is sc's, valid until its release.
func (g *Gateway) forward(digest string, sections []PresplitSection, sc *forwardScratch) ([][]string, error) {
	if len(sections) == 0 {
		return nil, nil
	}
	if g.skew != nil {
		// Skew correction rewrites timestamps before routing; a verbatim
		// forward would bypass it. Fall back to the decoded path.
		return nil, ErrPresplitMismatch
	}
	sc.idxOf = sized(sc.idxOf, len(sections))
	for k := range sections {
		idx, ok := g.byName[sections[k].Shard]
		if !ok {
			return nil, ErrPresplitMismatch
		}
		if _, ok := g.shards[idx].(FrameIngester); !ok {
			return nil, ErrPresplitMismatch
		}
		sc.idxOf[k] = idx
	}
	admit, err := g.gate.Acquire()
	if err != nil {
		return nil, err
	}
	defer admit()

	gm := g.met
	var splitStart time.Time
	if gm != nil {
		splitStart = time.Now()
	}
	// One metadata pass per section: device names, per-device in-flight
	// counts and the report-clock high-water mark — everything acquire()
	// learns from decoded reports, read from the frame headers without
	// touching the beacon payloads. The registry is held across the pass
	// so a device it already knows resolves to the registry's own string.
	sc.nOf = sized(sc.nOf, len(sections))
	total := 0
	g.devMu.Lock()
	for k := range sections {
		n, err := wire.ScanReports(sections[k].Payload, func(device []byte, at float64, _, _ uint64) error {
			if at > sc.maxAt {
				sc.maxAt = at
			}
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
			return nil, fmt.Errorf("fleet: pre-split section %q: %w", sections[k].Shard, err)
		}
		sc.nOf[k] = n
		total += n
	}
	g.devMu.Unlock()
	if gm != nil {
		gm.batchSize.Observe(int64(total))
	}
	if err := g.acquireNamed(digest, sc.devices, sc.counts, sc.maxAt); err != nil {
		return nil, err
	}
	defer g.releaseNamed(sc.devices, sc.counts)
	if gm != nil {
		gm.splitTime.Since(splitStart)
	}

	sc.rooms = sized(sc.rooms, len(sections))
	sc.errs = sized(sc.errs, len(sections))
	if g.serial || len(sections) == 1 {
		for k := range sections {
			g.forwardSection(sections, sc, k)
		}
	} else {
		done := make(chan int, len(sections))
		for k := range sections {
			go func(k int) { g.forwardSection(sections, sc, k); done <- k }(k)
		}
		for range sections {
			<-done
		}
	}
	for _, err := range sc.errs {
		if err != nil {
			return nil, err
		}
	}
	if gm != nil {
		gm.presplitForwarded.Inc()
	}
	return sc.rooms, nil
}

// forwardSection delivers section k's frame to its shard verbatim and
// records the rooms or the error in sc's slot k.
func (g *Gateway) forwardSection(sections []PresplitSection, sc *forwardScratch, k int) {
	idx, n := sc.idxOf[k], sc.nOf[k]
	if err := g.breakerAllow(idx); err != nil {
		sc.errs[k] = err
		return
	}
	gm := g.met
	var sendStart time.Time
	if gm != nil {
		sendStart = time.Now()
	}
	out, err := g.shards[idx].(FrameIngester).IngestFrame(sections[k].Frame, n)
	if gm != nil {
		gm.sendLatency[idx].Since(sendStart)
	}
	g.breakerObserve(idx, err)
	if err != nil {
		sc.errs[k] = fmt.Errorf("fleet: shard %s: %w", g.shards[idx].Name(), err)
		return
	}
	if len(out) != n {
		sc.errs[k] = fmt.Errorf("%w: shard %s returned %d rooms for %d reports",
			ErrShardMisbehaved, g.shards[idx].Name(), len(out), n)
		return
	}
	sc.rooms[k] = out
	g.note(idx, int64(n))
}

// acquireNamed is acquire() for a pre-split upload: the same critical
// section — fence check, registration, in-flight accounting under one
// shared hold of the routing lock — except that instead of resolving
// owners it verifies the caller's digest against the gateway's. A
// fence wait implies a routing change, which implies a digest change,
// so the retry loop always exits with ErrPresplitMismatch after a
// migration rather than forwarding against the new table. A nil error
// must be paired with releaseNamed once the deliveries finish.
func (g *Gateway) acquireNamed(digest string, devices []string, counts []int, maxAt float64) error {
	for {
		g.mu.RLock()
		if g.digest != digest {
			g.mu.RUnlock()
			return ErrPresplitMismatch
		}
		if len(g.fenced) > 0 {
			var wait chan struct{}
			for _, d := range devices {
				if f, ok := g.fenced[d]; ok {
					wait = f.done
					break
				}
			}
			if wait != nil {
				g.mu.RUnlock()
				<-wait
				continue
			}
		}
		g.devMu.Lock()
		for i, d := range devices {
			g.known[d] = d
			g.flight[d] += counts[i]
		}
		if maxAt > g.maxAt {
			g.maxAt = maxAt
		}
		g.devMu.Unlock()
		g.mu.RUnlock()
		return nil
	}
}

// releaseNamed returns the in-flight counts acquireNamed took.
func (g *Gateway) releaseNamed(devices []string, counts []int) {
	g.devMu.Lock()
	for i, d := range devices {
		if g.flight[d] -= counts[i]; g.flight[d] <= 0 {
			delete(g.flight, d)
		}
	}
	g.devMu.Unlock()
	g.flightCond.Broadcast()
}

package main

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"occusim/internal/fleet"
	"occusim/internal/transport"
)

// The traced pass measures every layer from outside: each decorator
// below sits on a boundary the benchmark owns — the device's batch
// sink, the two http.RoundTrippers, the two http.Handlers, the gateway's
// fleet.Shard — and records one span per crossing. Spans stay in memory
// and are summed when the pass ends.

// layer names the boundary a span was recorded at.
type layer uint8

const (
	lSink         layer = iota // device SendBatch
	lDevRT                     // device-side RoundTrip (ingest or ring fetch)
	lGWIngest                  // gateway handler, POST observations:batch
	lShardCall                 // gateway → shard IngestBatch / IngestFrame
	lShardRT                   // HTTPShard's RoundTrip
	lShardHandler              // shard handler, POST observations:batch
	lReadOcc                   // gateway handler, GET occupancy
	lReadRollup                // gateway handler, GET rollup
	numLayers
)

// span is one boundary crossing. Spans of one upload share its id; the
// shard-side HTTP spans carry id 0 (HTTPShard builds its own request, so
// nothing can carry the id across) and are summed per layer instead.
type span struct {
	layer      layer
	id         uint32
	start, end int64 // ns on the tracer's clock
}

// headerSpan carries the upload id across the device → gateway leg.
const headerSpan = "X-Bench-Span"

// tracer collects spans into a preallocated buffer. It records only
// while on: warm-up crosses the same boundaries and is not measured.
type tracer struct {
	clock
	on     atomic.Bool
	spans  []span
	n      atomic.Int64
	nextID atomic.Uint32
	// cur maps a device index to the id of its in-flight upload. A device
	// has at most one upload in flight (its uplink is driven by one
	// client, closed loop or not), which is what lets the shard decorator
	// find the upload a sub-batch or frame belongs to.
	cur []atomic.Uint32
}

func newTracer(c clock, devices, capacity int) *tracer {
	return &tracer{clock: c, spans: make([]span, capacity), cur: make([]atomic.Uint32, devices)}
}

func (t *tracer) record(l layer, id uint32, start, end int64) {
	if !t.on.Load() {
		return
	}
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{layer: l, id: id, start: start, end: end}
	}
}

// collected returns the recorded spans, or an error when the buffer
// overflowed — sums over a truncated trace would be silently wrong.
func (t *tracer) collected() ([]span, error) {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		return nil, fmt.Errorf("trace buffer overflowed: %d spans, capacity %d", n, len(t.spans))
	}
	return t.spans[:n], nil
}

// deviceIndex parses the index out of a synthetic device name
// ("crowd-017" → 17); -1 when the name has no numeric suffix.
func deviceIndex[T string | []byte](name T) int {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) {
		return -1
	}
	n := 0
	for ; i < len(name); i++ {
		n = n*10 + int(name[i]-'0')
	}
	return n
}

// firstFrameDevice returns the first report's device name of a wire
// frame (header 9 bytes, u32 count, uvarint name length, name) without
// decoding the rest.
func firstFrameDevice(frame []byte) []byte {
	const head = 9 + 4
	if len(frame) < head {
		return nil
	}
	n, sz := binary.Uvarint(frame[head:])
	if sz <= 0 || n > uint64(len(frame)-head-sz) {
		return nil
	}
	return frame[head+sz : head+sz+int(n)]
}

// uploadOf resolves the in-flight upload id of a device name.
func uploadOf[T string | []byte](t *tracer, device T) uint32 {
	if i := deviceIndex(device); i >= 0 && i < len(t.cur) {
		return t.cur[i].Load()
	}
	return 0
}

// tracedShard is the gateway → shard boundary. It must satisfy
// fleet.FrameIngester as well as fleet.Shard: a shard without it makes
// IngestPresplit answer ErrPresplitMismatch, and the traced pass would
// silently measure the re-split path instead of the verbatim forward.
type tracedShard struct {
	fleet.Shard
	frames fleet.FrameIngester
	tr     *tracer
}

var (
	_ fleet.Shard         = (*tracedShard)(nil)
	_ fleet.FrameIngester = (*tracedShard)(nil)
)

func newTracedShard(inner fleet.Shard, tr *tracer) (*tracedShard, error) {
	fi, ok := inner.(fleet.FrameIngester)
	if !ok {
		return nil, fmt.Errorf("shard %s cannot ingest frames", inner.Name())
	}
	return &tracedShard{Shard: inner, frames: fi, tr: tr}, nil
}

func (s *tracedShard) IngestBatch(reports []transport.Report) ([]string, error) {
	start := s.tr.now()
	rooms, err := s.Shard.IngestBatch(reports)
	var id uint32
	if len(reports) > 0 {
		id = uploadOf(s.tr, reports[0].Device)
	}
	s.tr.record(lShardCall, id, start, s.tr.now())
	return rooms, err
}

func (s *tracedShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	start := s.tr.now()
	rooms, err := s.frames.IngestFrame(frame, reports)
	s.tr.record(lShardCall, uploadOf(s.tr, firstFrameDevice(frame)), start, s.tr.now())
	return rooms, err
}

// tracedRT is an http.RoundTripper boundary. On a device client, upload
// points at the owning client's in-flight upload id, which the request
// then carries to the gateway in headerSpan; a shard-side client has no
// id to carry.
type tracedRT struct {
	next   http.RoundTripper
	tr     *tracer
	layer  layer
	upload *uint32
}

func (rt *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	var id uint32
	if rt.upload == nil && (req.Method != http.MethodPost || req.URL.Path != pathBatch) {
		// Shard-side, only ingest is a layer: the federated reads' fan-out
		// is inside the gateway's read spans.
		return rt.next.RoundTrip(req)
	}
	if rt.upload != nil {
		id = *rt.upload
		// A RoundTripper may not modify the caller's request: stamp a
		// shallow copy with its own header map.
		r2 := *req
		r2.Header = req.Header.Clone()
		r2.Header.Set(headerSpan, strconv.FormatUint(uint64(id), 10))
		req = &r2
	}
	start := rt.tr.now()
	resp, err := rt.next.RoundTrip(req)
	rt.tr.record(rt.layer, id, start, rt.tr.now())
	return resp, err
}

// tracedHandler is an http.Handler boundary: the gateway's (ingest and
// the two federated reads) or a shard's (ingest only).
type tracedHandler struct {
	next    http.Handler
	tr      *tracer
	gateway bool
}

const pathBatch = "/api/v1/observations:batch"

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l := numLayers
	switch {
	case r.Method == http.MethodPost && r.URL.Path == pathBatch && h.gateway:
		l = lGWIngest
	case r.Method == http.MethodPost && r.URL.Path == pathBatch:
		l = lShardHandler
	case h.gateway && r.URL.Path == "/api/v1/occupancy":
		l = lReadOcc
	case h.gateway && r.URL.Path == "/api/v1/rollup":
		l = lReadRollup
	}
	if l == numLayers {
		h.next.ServeHTTP(w, r)
		return
	}
	var id uint64
	if v := r.Header.Get(headerSpan); v != "" {
		id, _ = strconv.ParseUint(v, 10, 32) // a malformed id leaves the span unlinked
	}
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.record(l, uint32(id), start, h.tr.now())
}

// --- self time ----------------------------------------------------------

type interval struct{ start, end int64 }

// covered is the length of the part of [p.start, p.end] that the child
// intervals cover: children are clipped to the parent and overlapping
// ones (parallel shard calls) are counted once.
func covered(p interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < p.start {
			c.start = p.start
		}
		if c.end > p.end {
			c.end = p.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = p.start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			total += c.end - reach
			reach = c.end
		}
	}
	return total
}

// selfTime is a span's duration minus what its children cover.
func selfTime(p interval, children []interval) int64 {
	return p.end - p.start - covered(p, children)
}

// spanSums is what the traced pass reduces its spans to: durations
// summed per layer, self times along the linked chain
// sink → device RoundTrip → gateway handler → shard calls, and counts.
type spanSums struct {
	total    [numLayers]int64 // Σ duration per layer
	count    [numLayers]int64
	sinkSelf int64 // Σ sink − its RoundTrips
	legSelf  int64 // Σ device RoundTrip − the gateway handler inside it
	gwSelf   int64 // Σ gateway handler − the union of its shard calls
	wait     int64 // Σ union of shard calls per upload: the wait for the slowest
	unlinked int64 // gateway-side spans that named no upload
}

// sumSpans groups spans by upload id and applies selfTime down the
// chain. A chain without a gateway (shard-durable: sink → shard call)
// works the same way with the middle layers empty.
func sumSpans(spans []span) spanSums {
	var s spanSums
	byID := map[uint32][]span{}
	for _, sp := range spans {
		s.total[sp.layer] += sp.end - sp.start
		s.count[sp.layer]++
		switch sp.layer {
		case lSink, lDevRT, lGWIngest, lShardCall:
			if sp.id == 0 {
				s.unlinked++
				continue
			}
			byID[sp.id] = append(byID[sp.id], sp)
		}
	}
	pick := func(group []span, l layer) []interval {
		var out []interval
		for _, sp := range group {
			if sp.layer == l {
				out = append(out, interval{sp.start, sp.end})
			}
		}
		return out
	}
	for _, group := range byID {
		sinks, rts := pick(group, lSink), pick(group, lDevRT)
		gws, calls := pick(group, lGWIngest), pick(group, lShardCall)
		for _, p := range sinks {
			if len(rts) > 0 {
				s.sinkSelf += selfTime(p, rts)
			} else {
				s.sinkSelf += selfTime(p, calls) // no HTTP: the sink calls the shard itself
			}
		}
		for _, p := range rts {
			s.legSelf += selfTime(p, gws)
		}
		for _, p := range gws {
			c := covered(p, calls)
			s.gwSelf += p.end - p.start - c
			s.wait += c
		}
		if len(gws) == 0 {
			for _, p := range sinks {
				s.wait += covered(p, calls)
			}
		}
	}
	return s
}

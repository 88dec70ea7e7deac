// Binary HTTP face of the gateway: the wire-codec branch of the batch
// ingest route and the published routing table (GET /api/v1/ring) that
// devices pre-split against. JSON stays the compatibility face — a
// request without the wire content type takes the historical path
// untouched.
package fleet

import (
	"errors"
	"fmt"
	"net/http"

	"occusim/internal/bms"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// handleWireBatch serves POST /api/v1/observations:batch for the
// binary codec: a plain frame decodes and takes the ordinary batch
// path; sections under a matching ring digest forward verbatim, and
// under a stale one decode in section order and re-split server-side —
// the response is the same rooms column either way (a wire request gets
// a wire ack: wire.AppendRooms), so the device never learns (or cares)
// which path ran.
func handleWireBatch(g *Gateway, opts HandlerOptions, w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, err := wire.ReadBody(r.Body, r.ContentLength, wire.MaxBodyBytes, buf)
	if err != nil {
		bms.WriteUploadError(w, "read body", err)
		return
	}
	if opts.Lease != nil && !opts.Lease.Active() {
		fleetStandbyError(w, opts.Lease)
		return
	}
	digest := r.Header.Get(wire.HeaderRingDigest)
	if digest == "" {
		// One plain frame: decode and split server-side, the gateway's
		// historical job, minus the JSON parse.
		b := wire.GetBatch()
		defer wire.PutBatch(b)
		if err := wire.DecodeFrame(body, b); err != nil {
			fleetError(w, http.StatusBadRequest, fmt.Errorf("decode frame: %w", err))
			return
		}
		serveIngestBatch(g, opts, w, transport.DecodeReports(b, nil), true)
		return
	}
	sc := getUploadScratch()
	defer sc.release()
	if err := wire.ScanSections(body, func(shard, frame, payload []byte) error {
		// A shard the gateway routes to resolves to the gateway's own
		// name for it; an unknown one is copied, and rejected below.
		var name string
		if idx, ok := g.byName[string(shard)]; ok {
			name = g.shards[idx].Name()
		} else {
			name = string(shard)
		}
		sc.secs = append(sc.secs, PresplitSection{Shard: name, Frame: frame, Payload: payload})
		return nil
	}); err != nil {
		fleetError(w, http.StatusBadRequest, fmt.Errorf("decode sections: %w", err))
		return
	}
	err = g.forward(digest, sc.secs, sc)
	if err == nil {
		for k := range sc.out {
			sc.flat = append(sc.flat, sc.out[k].rooms...)
		}
		// The frames are forwarded: the body's buffer carries the ack.
		*buf = wire.AppendRooms((*buf)[:0], sc.flat)
		writeWireAck(w, *buf)
		return
	}
	if !errors.Is(err, ErrPresplitMismatch) {
		if opts.Lease != nil {
			opts.Lease.ObserveStale(err)
		}
		fleetIngestError(w, err)
		return
	}
	// Stale digest (or a shard that cannot take frames): re-split
	// server-side from the decoded sections. Report order is section
	// order, which is how the device assembled the upload, so the rooms
	// column still answers report-for-report. Under skew correction
	// forward refuses every upload before it looks at the digest, which
	// is no digest miss.
	if gm := g.met; gm != nil {
		if g.skew != nil {
			gm.presplitSkew.Inc()
		} else {
			gm.presplitDigestMiss.Inc()
		}
	}
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	var reports []transport.Report
	for k := range sc.secs {
		b.Reset()
		if err := wire.DecodePayload(sc.secs[k].Payload, b); err != nil {
			fleetError(w, http.StatusBadRequest, fmt.Errorf("decode section %q: %w", sc.secs[k].Shard, err))
			return
		}
		reports = transport.DecodeReports(b, reports)
	}
	serveIngestBatch(g, opts, w, reports, true)
}

// writeWireAck answers 200 with an encoded rooms column.
func writeWireAck(w http.ResponseWriter, ack []byte) {
	w.Header()["Content-Type"] = wire.AckContentType
	_, _ = w.Write(ack)
}

// serveIngestBatch runs the decoded batch path and writes the answer in
// the request's codec — shared by the JSON route and every wire
// fallback.
func serveIngestBatch(g *Gateway, opts HandlerOptions, w http.ResponseWriter, reports []transport.Report, wireAck bool) {
	rooms, err := g.IngestBatch(reports)
	if err != nil {
		if opts.Lease != nil {
			opts.Lease.ObserveStale(err)
		}
		fleetIngestError(w, err)
		return
	}
	if wireAck {
		buf := wire.GetBuf()
		defer wire.PutBuf(buf)
		*buf = wire.AppendRooms(*buf, rooms)
		writeWireAck(w, *buf)
		return
	}
	if rooms == nil {
		rooms = []string{}
	}
	fleetJSON(w, http.StatusOK, map[string]any{"rooms": rooms})
}

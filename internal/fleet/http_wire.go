// The gateway's ingest routes. JSON stays the compatibility face — a
// request without the wire content type is parsed as JSON and answered in
// JSON — but behind either face an upload the gateway must cut itself is
// decoded into a pooled wire.Batch and takes the same server-side split
// (Gateway.split).
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
// binary codec: a plain frame decodes and is split server-side; sections
// under a matching ring digest forward verbatim, and refused ones decode
// in section order into one batch and are split the same way — the
// response is the same rooms column either way (a wire request gets a
// wire ack: wire.AppendRooms), so the device never learns (or cares)
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
	sc := getUploadScratch()
	defer sc.release()
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if digest := r.Header.Get(wire.HeaderRingDigest); digest == "" {
		// One plain frame: the gateway's historical job, minus the JSON
		// parse.
		if err := wire.DecodeFrame(body, b); err != nil {
			fleetError(w, http.StatusBadRequest, fmt.Errorf("decode frame: %w", err))
			return
		}
	} else {
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
		err := g.forward(digest, sc.secs, sc)
		if err == nil {
			for k := range sc.out {
				sc.flat = append(sc.flat, sc.out[k].rooms...)
			}
			writeWireAck(w, buf, sc.flat)
			return
		}
		if !errors.Is(err, ErrPresplitMismatch) {
			ingestFailed(opts, w, err)
			return
		}
		// Refused (forward counted why): split server-side from the decoded
		// sections. Report order is section order, which is how the device
		// assembled the upload, so the rooms column still answers report
		// for report.
		for k := range sc.secs {
			if err := wire.AppendDecoded(sc.secs[k].Payload, b); err != nil {
				fleetError(w, http.StatusBadRequest, fmt.Errorf("decode section %q: %w", sc.secs[k].Shard, err))
				return
			}
		}
	}
	if err := g.split(b, sc); err != nil {
		ingestFailed(opts, w, err)
		return
	}
	writeWireAck(w, buf, sc.flat)
}

// handleJSONUpload serves the JSON ingest routes, POST
// /api/v1/observations (one report object) and, with batch set, POST
// /api/v1/observations:batch (the array), in handleWireBatch's shape:
// decode → lease gate → split → ack from the scratch's rooms. The body is
// read and decoded exactly as one bms.Server does it, into the same pooled
// target; a beacon identity that did not parse refuses the whole upload
// where the batch is rendered, behind the lease gate and before any shard
// hears of the upload.
func handleJSONUpload(g *Gateway, opts HandlerOptions, w http.ResponseWriter, r *http.Request, batch bool) {
	u := transport.GetJSONUpload()
	defer u.Release()
	if err := bms.ReadJSONUpload(w, r, u, batch); err != nil {
		bms.WriteUploadError(w, "decode", err)
		return
	}
	if opts.Lease != nil && !opts.Lease.Active() {
		fleetStandbyError(w, opts.Lease)
		return
	}
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := u.AppendTo(b); err != nil {
		ingestFailed(opts, w, fmt.Errorf("fleet: batch: %w", err))
		return
	}
	sc := getUploadScratch()
	defer sc.release()
	if err := g.split(b, sc); err != nil {
		ingestFailed(opts, w, err)
		return
	}
	// A JSON request gets the JSON ack.
	bms.WriteJSONAck(w, sc.flat, batch)
}

// writeWireAck answers 200 with the rooms column, encoded into the
// upload body's buffer: its frames are delivered.
func writeWireAck(w http.ResponseWriter, buf *[]byte, rooms []string) {
	*buf = wire.AppendRooms((*buf)[:0], rooms)
	w.Header()["Content-Type"] = wire.AckContentType
	_, _ = w.Write(*buf)
}

// ingestFailed answers a failed gateway ingest, letting the lease see a
// shard's fence first.
func ingestFailed(opts HandlerOptions, w http.ResponseWriter, err error) {
	if opts.Lease != nil {
		opts.Lease.ObserveStale(err)
	}
	fleetIngestError(w, err)
}

// The gateway's HTTP face: the one route table bms serves a box through
// (bms.Routes), over the gateway's verbs, plus the two views only a fleet
// has. JSON stays the compatibility face — a request without the wire
// content type is parsed as JSON and answered in JSON — but behind either
// face an upload the gateway must cut itself is decoded into a pooled
// wire.Batch and takes the same server-side split (Gateway.split).
package fleet

import (
	"errors"
	"fmt"
	"net/http"

	"occusim/internal/bms"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// HandlerOptions tunes the gateway's HTTP face.
type HandlerOptions struct {
	// Trainer, when set, serves the training endpoints: fingerprints
	// collect into the trainer's store, and POST /api/v1/train fits the
	// model there and distributes the snapshot to every shard. Without
	// it the gateway is ingest/query only and those endpoints 404.
	Trainer *bms.Server
	// Lease, when set, gates the write path on gateway leadership: a
	// standby (or deposed) gateway answers ingest with 409 plus an
	// X-Leader-Hint naming where leadership lives, instead of routing
	// writes its shards would fence anyway. Reads stay open on a
	// standby — they are merge-only and harmless.
	Lease *LeaseController
}

// Handler exposes the gateway over HTTP through the route table one
// bms.Server is served by — health (a live probe of every shard), both
// upload routes, the federated occupancy, events, dwell and rollup, model
// distribution, with a Trainer fingerprints and train, /metrics and
// telemetry — so clients (and cmd/loadgen) cannot tell a fleet from a
// single box. It adds only the fleet's own views:
//
//	GET /api/v1/shards  routing and health per shard
//	GET /api/v1/ring    routing table for pre-split devices
func Handler(g *Gateway, opts HandlerOptions) http.Handler {
	mux := bms.Routes(face{g, opts}, opts.Trainer)
	mux.HandleFunc("GET /api/v1/ring", func(w http.ResponseWriter, r *http.Request) {
		bms.WriteJSON(w, http.StatusOK, g.RingInfo())
	})
	mux.HandleFunc("GET /api/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		bms.WriteJSON(w, http.StatusOK, map[string]any{"shards": g.Statuses()})
	})
	return mux
}

// face is the gateway as the route table serves it: the reads, events and
// metrics are the Gateway's own; the lease gates the uploads.
type face struct {
	*Gateway
	opts HandlerOptions
}

// errStandby refuses a write to a gateway that does not lead.
var errStandby = errors.New("gateway is standby, not leading")

// writable is the lease gate: a standby answers 409 with an X-Leader-Hint
// at wherever it believes leadership lives, so a device uplink redirects
// without burning retry budget.
func (f face) writable() error {
	if l := f.opts.Lease; l != nil && !l.Active() {
		return &transport.Error{Code: http.StatusConflict, Leader: l.LeaderHint(), Err: errStandby}
	}
	return nil
}

// failed lets the lease see a shard's fence before the failure is
// answered.
func (f face) failed(err error) error {
	if f.opts.Lease != nil {
		f.opts.Lease.ObserveStale(err)
	}
	return err
}

// Health probes every shard: ok, degraded with some down, 503 with all.
func (f face) Health() (any, bool) {
	statuses := f.CheckHealth()
	down := 0
	for _, s := range statuses {
		if s.Down {
			down++
		}
	}
	status := "ok"
	switch {
	case down == len(statuses):
		status = "down"
	case down > 0:
		status = "degraded"
	}
	return map[string]any{"status": status, "shards": len(statuses), "down": down}, down < len(statuses)
}

// UploadJSON takes a JSON upload in UploadFrame's shape: lease gate →
// render → split. A beacon identity that did not parse refuses the whole
// upload where the batch is rendered, behind the lease gate and before
// any shard hears of it.
func (f face) UploadJSON(r *http.Request, u *transport.JSONUpload, rooms []string) ([]string, error) {
	if err := f.writable(); err != nil {
		return rooms, err
	}
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := u.AppendTo(b); err != nil {
		return rooms, fmt.Errorf("fleet: batch: %w", err)
	}
	sc := getUploadScratch()
	defer sc.release()
	if err := f.split(b, sc); err != nil {
		return rooms, f.failed(err)
	}
	return append(rooms, sc.flat...), nil
}

// UploadFrame takes a wire upload: a plain frame decodes and is split
// server-side; sections under a matching ring digest forward verbatim,
// and refused ones decode in section order into one batch and are split
// the same way — the rooms column is the same either way, so the device
// never learns (or cares) which path ran.
func (f face) UploadFrame(r *http.Request, body []byte, rooms []string) ([]string, error) {
	if err := f.writable(); err != nil {
		return rooms, err
	}
	sc := getUploadScratch()
	defer sc.release()
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if digest := r.Header.Get(wire.HeaderRingDigest); digest == "" {
		if err := wire.DecodeFrame(body, b); err != nil {
			return rooms, fmt.Errorf("decode frame: %w", err)
		}
	} else {
		if err := wire.ScanSections(body, func(shard, frame, payload []byte) error {
			// A shard the gateway routes to resolves to the gateway's own
			// name for it; an unknown one is copied, and rejected below.
			var name string
			if idx, ok := f.byName[string(shard)]; ok {
				name = f.shards[idx].Name()
			} else {
				name = string(shard)
			}
			sc.secs = append(sc.secs, PresplitSection{Shard: name, Frame: frame, Payload: payload})
			return nil
		}); err != nil {
			return rooms, fmt.Errorf("decode sections: %w", err)
		}
		err := f.forward(digest, sc.secs, sc)
		if err == nil {
			for k := range sc.out {
				rooms = append(rooms, sc.out[k].rooms...)
			}
			return rooms, nil
		}
		if !errors.Is(err, ErrPresplitMismatch) {
			return rooms, f.failed(err)
		}
		// Refused (forward counted why): split server-side from the decoded
		// sections. Report order is section order, which is how the device
		// assembled the upload, so the rooms column still answers report
		// for report.
		for k := range sc.secs {
			if err := wire.AppendDecoded(sc.secs[k].Payload, b); err != nil {
				return rooms, fmt.Errorf("decode section %q: %w", sc.secs[k].Shard, err)
			}
		}
	}
	if err := f.split(b, sc); err != nil {
		return rooms, f.failed(err)
	}
	return append(rooms, sc.flat...), nil
}

// PutModel distributes the snapshot to every shard.
func (f face) PutModel(snap bms.ModelSnapshot) (any, error) {
	if err := f.DistributeModel(snap); err != nil {
		return nil, err
	}
	return map[string]int{"version": snap.Version, "shards": f.Shards()}, nil
}

// Trained distributes the model the trainer just fitted to every shard.
func (f face) Trained(res bms.TrainResult) (any, error) {
	snap, ok := f.opts.Trainer.ModelSnapshot()
	if !ok {
		return nil, &transport.Error{Code: http.StatusInternalServerError, Err: errors.New("trained model missing")}
	}
	if err := f.DistributeModel(snap); err != nil {
		return nil, err
	}
	return map[string]any{
		"samples":        res.Samples,
		"classes":        res.Classes,
		"supportVectors": res.SupportVectors,
		"modelVersion":   res.ModelVersion,
		"shards":         f.Shards(),
	}, nil
}

// Binary ingest face: the wire-codec batch path. A decoded wire.Batch
// carries beacon identities in their binary form already, so ingest
// skips both the []transport.Report materialization and the per-beacon
// string parse — observations are built straight from the
// struct-of-arrays batch. Semantics are identical to IngestBatch: same
// validation, same WAL log-then-apply, same (Epoch, Seq) dedup, same
// metrics.
package bms

import (
	"fmt"
	"net/http"
	"slices"
	"time"

	"occusim/internal/occupancy"
	"occusim/internal/wire"
)

// IngestWireBatch processes a decoded binary batch in one pass,
// returning the predicted room per report in batch order. The batch's
// report ordering contract matches IngestBatch: one device's reports
// ordered by time, devices interleaving freely. b is not retained.
func (s *Server) IngestWireBatch(b *wire.Batch) ([]string, error) {
	sc := getScratch()
	defer sc.release()
	rooms, err := s.ingestWire(b, nil, sc)
	return slices.Clone(rooms), err
}

// ingestWire is IngestWireBatch on the caller's scratch, with the wire
// payload b was decoded from (nil when there is none): a durable server
// logs those received, already checksummed bytes instead of encoding b
// again. The returned rooms are sc's column, valid until its release.
func (s *Server) ingestWire(b *wire.Batch, payload []byte, sc *ingestScratch) ([]string, error) {
	n := b.Len()
	if n == 0 {
		return nil, nil
	}
	sm := s.met
	var start time.Time
	if sm != nil {
		start = time.Now()
	}
	release, err := s.gate.Acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	for i, device := range b.Devices {
		if device == "" {
			return nil, fmt.Errorf("bms: batch report %d: bms: report without device", i)
		}
	}
	sc.size(n)
	wireObservations(b, sc.obs)
	cls := s.classifierSnapshot()
	for i := range sc.obs {
		o := &sc.obs[i]
		sc.rooms[i] = cls.PredictSpan(o.Beacons, &sc.cls)
		sc.track[i] = occupancy.Classification{At: o.At, Device: o.Device, Room: sc.rooms[i]}
	}
	if err := s.commit(sc, sm, start, func() error { return s.logObservations(b, payload, sc.rooms) }); err != nil {
		return nil, err
	}
	return sc.rooms, nil
}

// ingestWireFrame decodes one whole wire frame into a pooled batch and
// ingests it behind the leadership fence, on the caller's scratch. The
// frame's payload is what a durable server logs, so the bytes a device
// checksummed reach the WAL without being encoded again.
func (s *Server) ingestWireFrame(gwEpoch uint64, frame []byte, sc *ingestScratch) ([]string, error) {
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	payload, err := wire.DecodeFramePayload(frame, b)
	if err != nil {
		return nil, fmt.Errorf("decode frame: %w", err)
	}
	if err := s.admitEpoch(gwEpoch); err != nil {
		return nil, err
	}
	return s.ingestWire(b, payload, sc)
}

// IngestWireFrameFenced is the shard end of the framed path in process:
// one verbatim frame in, the predicted room per report out.
func (s *Server) IngestWireFrameFenced(gwEpoch uint64, frame []byte) ([]string, error) {
	sc := getScratch()
	defer sc.release()
	rooms, err := s.ingestWireFrame(gwEpoch, frame, sc)
	return slices.Clone(rooms), err
}

// wireAckType is the ack's Content-Type header value, shared by every
// response: net/http reads header values, it never writes to them.
var wireAckType = []string{wire.ContentType}

// handleWireObservationBatch serves the binary branch of
// POST /api/v1/observations:batch: one wire frame in, decoded into a
// pooled batch and ingested with no intermediate report slice; the
// run-length rooms column out (wire.AppendRooms) — a wire request gets a
// wire ack. Errors keep their JSON bodies.
func (s *Server) handleWireObservationBatch(w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, err := wire.ReadBody(r.Body, r.ContentLength, wire.MaxBodyBytes, buf)
	if err != nil {
		writeUploadError(w, "read body", err)
		return
	}
	sc := getScratch()
	defer sc.release()
	rooms, err := s.ingestWireFrame(gatewayEpochFrom(r), body, sc)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	// The frame is applied (and logged, by copy): its buffer carries the
	// ack back.
	*buf = wire.AppendRooms((*buf)[:0], rooms)
	w.Header()["Content-Type"] = wireAckType
	_, _ = w.Write(*buf)
}

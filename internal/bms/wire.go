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
	"io"
	"net/http"
	"time"

	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/wire"
)

// IngestWireBatch processes a decoded binary batch in one pass,
// returning the predicted room per report in batch order. The batch's
// report ordering contract matches IngestBatch: one device's reports
// ordered by time, devices interleaving freely. b is not retained.
func (s *Server) IngestWireBatch(b *wire.Batch) ([]string, error) {
	return s.ingestWire(b, nil)
}

// ingestWire is IngestWireBatch with the wire payload b was decoded
// from (nil when there is none): a durable server logs those received,
// already checksummed bytes instead of encoding b again.
func (s *Server) ingestWire(b *wire.Batch, payload []byte) ([]string, error) {
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
	obs := make([]store.Observation, n)
	dists := make(map[ibeacon.BeaconID]float64, 8)
	cls := s.classifierSnapshot()
	rooms := make([]string, n)
	track := make([]occupancy.Classification, n)

	for i := 0; i < n; i++ {
		if b.Devices[i] == "" {
			return nil, fmt.Errorf("bms: batch report %d: bms: report without device", i)
		}
		o := wireObservation(b, i)
		clear(dists)
		for _, bd := range o.Beacons {
			dists[bd.ID] = bd.Distance
		}
		obs[i] = o
		rooms[i] = cls.Predict(fingerprint.Sample{At: o.At, Distances: dists})
		track[i] = occupancy.Classification{At: o.At, Device: o.Device, Room: rooms[i]}
	}
	if s.dur != nil {
		end := s.dur.wal.Begin()
		defer end()
		if err := s.logObservations(b, payload, rooms); err != nil {
			return nil, err
		}
		defer s.maybeCompact()
	}
	fresh, err := s.st.AddObservationBatch(obs)
	if err != nil {
		return nil, err
	}
	live := track[:0]
	for i := range track {
		if fresh[i] {
			live = append(live, track[i])
		}
	}
	s.tracker.ObserveBatch(live)
	if sm != nil {
		sm.reports.Add(uint64(n))
		sm.batchSize.Observe(int64(n))
		sm.dedupDrops.Add(uint64(n - len(live)))
		sm.ingestLatency.Since(start)
	}
	return rooms, nil
}

// IngestWireFrameFenced decodes one whole wire frame into a pooled
// batch and ingests it behind the leadership fence — the shard end of
// the framed path, in process or over HTTP. The frame's payload is what
// a durable server logs, so the bytes a device checksummed reach the
// WAL without being encoded again.
func (s *Server) IngestWireFrameFenced(gwEpoch uint64, frame []byte) ([]string, error) {
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	payload, err := wire.DecodeFramePayload(frame, b)
	if err != nil {
		return nil, fmt.Errorf("decode frame: %w", err)
	}
	if err := s.admitEpoch(gwEpoch); err != nil {
		return nil, err
	}
	return s.ingestWire(b, payload)
}

// handleWireObservationBatch serves the binary branch of
// POST /api/v1/observations:batch: one wire frame, decoded into a
// pooled batch and ingested with zero intermediate report slice.
func (s *Server) handleWireObservationBatch(w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, err := readWireBody(r, buf)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	rooms, err := s.IngestWireFrameFenced(gatewayEpochFrom(r), body)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	if rooms == nil {
		rooms = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"rooms": rooms})
}

// readWireBody drains the request body into the pooled buffer.
func readWireBody(r *http.Request, dst *[]byte) ([]byte, error) {
	b := (*dst)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*dst = b
			return b, nil
		}
		if err != nil {
			*dst = b
			return nil, err
		}
	}
}

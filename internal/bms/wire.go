// Binary ingest face: the wire-codec doors of the ingest core. A
// decoded wire.Batch is what the core takes, so this face adds only the
// frame decode — no []transport.Report, no per-beacon string parse.
package bms

import (
	"fmt"
	"slices"

	"occusim/internal/wire"
)

// IngestWireBatch processes a decoded binary batch in one pass,
// returning the predicted room per report in batch order. The batch's
// report ordering contract matches IngestBatch: one device's reports
// ordered by time, devices interleaving freely. b is not retained.
func (s *Server) IngestWireBatch(b *wire.Batch) ([]string, error) {
	return s.ingestOwned(0, b, nil)
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
	return s.ingest(gwEpoch, b, payload, sc)
}

// IngestWireFrameFenced is the shard end of the framed path in process:
// one verbatim frame in, the predicted room per report out.
func (s *Server) IngestWireFrameFenced(gwEpoch uint64, frame []byte) ([]string, error) {
	sc := getScratch()
	defer sc.release()
	rooms, err := s.ingestWireFrame(gwEpoch, frame, sc)
	return slices.Clone(rooms), err
}

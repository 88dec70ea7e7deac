// Server telemetry: the handle bundle Instrument threads through the
// ingest and lease paths, plus the registry the HTTP face serves as
// GET /metrics and GET /api/v1/telemetry. An uninstrumented server
// carries a nil *serverMetrics and every hot-path site pays one
// predictable branch.
package bms

import (
	"occusim/internal/obs"
)

// serverMetrics bundles the server's telemetry handles.
type serverMetrics struct {
	reg *obs.Metrics

	ingestLatency *obs.Histogram // whole Ingest/IngestBatch call, admission to ack
	batchSize     *obs.Histogram // reports per ingested batch
	reports       *obs.Counter   // reports accepted (dups included)
	dedupDrops    *obs.Counter   // retransmitted reports the seq marks absorbed
	streamFrames  *obs.Counter   // frames taken off gateway streams

	leaseClaims   *obs.Counter // new-epoch grants (bootstrap + failovers)
	leaseRenewals *obs.Counter // same-epoch heartbeats
	leaseRejects  *obs.Counter // losing claims (stale or already-won epoch)
	fencedWrites  *obs.Counter // zombie writes rejected by the epoch fence
	staleAdmits   *obs.Counter // tripwire: stale-epoch writes ADMITTED (must stay 0)

	rec *obs.Recorder
}

// Instrument registers the server's telemetry on m and starts feeding
// it: ingest stage timing, lease transitions (with flight-recorder
// events), the admission gate, and — on a durable server — the WAL.
// Call at process wiring, before serving traffic. A nil m is a no-op.
func (s *Server) Instrument(m *obs.Metrics) {
	if m == nil {
		return
	}
	s.met = &serverMetrics{
		reg:           m,
		ingestLatency: m.Timing("bms_ingest_seconds", "observation ingest latency, admission to acknowledgement"),
		batchSize:     m.Sizes("bms_ingest_batch_size", "reports per ingested batch"),
		reports:       m.Counter("bms_ingest_reports_total", "observation reports accepted (retransmissions included)"),
		dedupDrops:    m.Counter("bms_ingest_dedup_drops_total", "retransmitted reports absorbed by per-device seq marks"),
		streamFrames:  m.Counter("bms_stream_frames_total", "frames taken off upgraded gateway streams"),
		leaseClaims:   m.Counter("bms_lease_claims_total", "gateway leadership grants at a new epoch"),
		leaseRenewals: m.Counter("bms_lease_renewals_total", "same-epoch lease heartbeats from the holder"),
		leaseRejects:  m.Counter("bms_lease_rejects_total", "lease claims rejected (stale or already-won epoch)"),
		fencedWrites:  m.Counter("bms_lease_stale_writes_total", "writes rejected by the leadership epoch fence"),
		staleAdmits:   m.Counter("bms_lease_stale_admits_total", "stale-epoch writes admitted past the fence (any nonzero value is a fencing bug)"),
		rec:           m.Recorder(),
	}
	m.GaugeFunc("bms_lease_epoch", "highest gateway leadership epoch this shard has granted", func() float64 {
		epoch, _ := s.GrantedLease()
		return float64(epoch)
	})
	m.GaugeFunc("bms_stream_open", "upgraded streams being served: gateways, and devices at a box", func() float64 {
		return float64(s.streams.Open())
	})
	s.gate.Instrument(m, "bms_gate")
	if s.dur != nil {
		s.dur.wal.Instrument(m)
	}
}

// Metrics returns the registry Instrument installed (nil before).
func (s *Server) Metrics() *obs.Metrics {
	if s.met == nil {
		return nil
	}
	return s.met.reg
}

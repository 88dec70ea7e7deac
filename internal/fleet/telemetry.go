// Gateway telemetry: per-shard send latency, batch split/reassembly
// timing, migration activity, and the leadership epoch — the fleet-side
// half of the flight-recorder story (the shards record their own grants
// and fences in internal/bms). Routed counts and gate occupancy are
// func-backed: the gateway already keeps them, so scrapes read them and
// the dispatch path stays untouched.
package fleet

import (
	"occusim/internal/obs"
)

// gatewayMetrics bundles the gateway's telemetry handles; nil (the
// default) keeps every instrumented site at one predictable branch.
type gatewayMetrics struct {
	reg *obs.Metrics

	sendLatency []*obs.Histogram // per shard: one frame delivery
	splitTime   *obs.Histogram   // routing + per-shard split of one batch
	reassembly  *obs.Histogram   // room reassembly into input order
	batchSize   *obs.Histogram   // reports per gateway batch
	migrations  *obs.Counter     // devices migrated across routing changes
	migrateTime *obs.Histogram   // one fenced handover, drain to resume

	readTime   [len(readViewNames)]*obs.Histogram // per view: one gather round
	readErrors []*obs.Counter                     // per shard: failed federated reads

	presplitForwarded  *obs.Counter // device-split uploads forwarded verbatim
	presplitDigestMiss *obs.Counter // pre-split uploads re-split server-side on a stale digest
	presplitSkew       *obs.Counter // pre-split uploads re-split because skew correction is on
	presplitMisroute   *obs.Counter // pre-split uploads re-split because a section was not its shard's share

	rec *obs.Recorder
}

// Instrument registers the gateway's telemetry on m and starts feeding
// it. Call at process wiring, before serving traffic; also instruments
// the admission gate ("fleet_gate"). A nil m is a no-op.
func (g *Gateway) Instrument(m *obs.Metrics) {
	if m == nil {
		return
	}
	gm := &gatewayMetrics{
		reg:         m,
		splitTime:   m.Timing("fleet_split_seconds", "batch routing and per-shard split time"),
		reassembly:  m.Timing("fleet_reassembly_seconds", "room reassembly into input order"),
		batchSize:   m.Sizes("fleet_ingest_batch_size", "reports per gateway batch"),
		migrations:  m.Counter("fleet_migrations_total", "devices migrated across routing changes"),
		migrateTime: m.Timing("fleet_migration_seconds", "fenced handover duration, drain to resume"),
		presplitForwarded: m.Counter("fleet_presplit_forwarded_total",
			"device-split uploads forwarded frame-verbatim to their shards"),
		presplitDigestMiss: m.Counter("fleet_presplit_digest_miss_total",
			"pre-split uploads whose ring digest was stale, re-split server-side"),
		presplitSkew: m.Counter("fleet_presplit_skew_fallback_total",
			"pre-split uploads re-split server-side because skew correction must see every timestamp"),
		presplitMisroute: m.Counter("fleet_presplit_misroute_total",
			"pre-split uploads under a fresh digest whose sections the gateway's own ring disowned, re-split server-side"),
		rec: m.Recorder(),
	}
	if g.skew != nil {
		// The two features do not compose (see forward); say so once, where
		// an operator reading the telemetry will find it.
		gm.rec.Record(obs.EventPresplitOff, map[string]any{
			"reason": "skew correction rewrites timestamps before routing", "skewWindowSeconds": g.skew.window,
		})
	}
	for view, name := range readViewNames {
		gm.readTime[view] = m.Timing("fleet_read_seconds", "one federated read round across the healthy shards", obs.L("view", name))
	}
	gm.sendLatency = make([]*obs.Histogram, len(g.shards))
	gm.readErrors = make([]*obs.Counter, len(g.shards))
	for i, s := range g.shards {
		i, name := i, s.Name()
		gm.sendLatency[i] = m.Timing("fleet_send_seconds", "one frame delivery to the shard", obs.L("shard", name))
		gm.readErrors[i] = m.Counter("fleet_read_errors_total", "federated reads the shard failed", obs.L("shard", name))
		if hs, ok := s.(*HTTPShard); ok {
			hs.streams.Instrument(
				m.Counter("fleet_stream_dials_total", "shard streams upgraded", obs.L("shard", name)),
				m.Counter("fleet_stream_resets_total", "shard streams closed on an error or deadline", obs.L("shard", name)),
				m.Recorder())
		}
		m.CounterFunc("fleet_routed_total", "reports delivered to the shard", func() float64 {
			return float64(g.routed[i].Load())
		}, obs.L("shard", name))
	}
	m.GaugeFunc("fleet_epoch", "gateway leadership epoch stamped on shard writes (0 = unfenced)", func() float64 {
		return float64(g.Epoch())
	})
	g.gate.Instrument(m, "fleet_gate")
	g.met = gm
}

// Metrics returns the registry Instrument installed (nil before).
func (g *Gateway) Metrics() *obs.Metrics {
	if g.met == nil {
		return nil
	}
	return g.met.reg
}

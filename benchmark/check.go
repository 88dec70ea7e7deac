package main

import (
	"fmt"

	"occusim/internal/obs"
	"occusim/internal/scenario"
	"occusim/internal/transport"
)

// check runs the correctness and non-vacuity checks on a finished pass.
// Every failure lands in res.problems and makes the command exit
// nonzero: a fast wrong answer, or a workload that quietly stopped
// exercising its mechanism, must not produce numbers.
func (sys *system) check(res *passResult) {
	w := sys.plan.w
	final := sys.met.TakeSnapshot()
	fail := func(format string, args ...any) {
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}

	if res.failed > 0 {
		fail("%d of %d operations failed", res.failed, res.attempted)
	}
	sent := 0
	for _, c := range sys.clients {
		sent += c.sent
	}
	if got := int(final.Counters["bms_ingest_reports_total"]); got != sent {
		fail("shards ingested %d reports, devices sent %d", got, sent)
	}
	if drops := final.Counters["bms_ingest_dedup_drops_total"]; drops != 0 {
		fail("%v reports were deduplicated; every (Epoch, Seq) should be fresh", drops)
	}

	occ, err := sys.gw.Occupancy()
	if err != nil {
		fail("federated occupancy: %v", err)
	} else if len(occ.Devices) != w.devices {
		fail("occupancy tracks %d devices, want %d", len(occ.Devices), w.devices)
	}
	for _, c := range sys.clients {
		for k, d := range c.devs {
			name := sys.names[d]
			owner, err := sys.gw.ShardFor(name)
			if err != nil {
				fail("owner of %s: %v", name, err)
				continue
			}
			st, ok := sys.servers[owner].ExportDevice(name)
			want := uint64(c.pos[k] - sys.firstPos())
			if !ok || st.Epoch != sys.deviceEpoch() || st.Seq != want {
				fail("%s: sequence mark (%d, %d) on its shard, last sent (%d, %d)",
					name, st.Epoch, st.Seq, sys.deviceEpoch(), want)
			}
		}
	}

	// Non-vacuity: each workload must have exercised what it is for.
	uploads := float64(final.Histograms["fleet_ingest_batch_size"].Count)
	forwarded := final.Counters["fleet_presplit_forwarded_total"]
	misses := final.Counters["fleet_presplit_digest_miss_total"]
	switch {
	case w.shards == 0:
		// no gateway on the ingest path
	case w.codec == transport.CodecBinary:
		if forwarded != uploads || misses != 0 {
			fail("pre-split: %v of %v uploads forwarded verbatim, %v digest misses", forwarded, uploads, misses)
		}
	default:
		_, sends := histDelta(obs.Snapshot{}, final, "fleet_send_seconds")
		if forwarded != 0 || sends <= uploads {
			fail("relay: %v shard sends for %v uploads (want more than one each), %v pre-split forwards (want 0)",
				sends, uploads, forwarded)
		}
	}
	if w.shards > 0 {
		for _, s := range sys.gw.Statuses() {
			if s.Routed == 0 {
				fail("shard %s received no traffic", s.Name)
			}
		}
	}
	if w.shards == 0 && w.durable {
		if got := res.metrics["store.wal_compactions"].V; got < float64(sys.minCompactions()) {
			fail("%v compactions in the timed phase, want at least %d", got, sys.minCompactions())
		}
	}
	// The smoke test's p99 is the worst of 72 wake-ups on a box that may
	// be running every other package's tests: it proves nothing there.
	if w.openLoop && !sys.plan.small() {
		if lag := res.metrics["loadgen.sched_lag_p99_ms"].V; lag >= maxSchedLagMs {
			fail("run invalid: the generator itself ran %.2f ms late at p99 (limit %v ms)", lag, maxSchedLagMs)
		}
	}
	if sys.plan.scale <= traceScale {
		if err := sys.verifyExact(); err != nil {
			fail("%v", err)
		}
	}
}

// minCompactions is shard-durable's non-vacuity floor: three cycles at
// full scale (and in the smoke test, whose threshold shrinks with it);
// the traced passes replay a third of the laps at the default
// threshold and must still see one.
func (sys *system) minCompactions() int {
	if sys.plan.scale >= 1 || sys.plan.small() {
		return 3
	}
	return 1
}

// verifyExact replays everything the devices sent into one clean
// reference server and requires the system's federated occupancy,
// events and dwell to be byte-identical to it — exactly-once, checked.
// It runs at traced scale and below, where the replay is cheap.
func (sys *system) verifyExact() error {
	end := make([]int, len(sys.streams))
	for _, c := range sys.clients {
		for k, d := range c.devs {
			end[d] = c.pos[k]
		}
	}
	// Lap 0 goes in through Reference itself.
	first := make([][]transport.Report, len(sys.streams))
	for d, stream := range sys.streams {
		first[d] = stream[:min(reportsPerLap, end[d])]
	}
	ref, err := scenario.Reference(sys.b, first, sys.plan.seed)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	lap := make([]transport.Report, reportsPerLap)
	for d, stream := range sys.streams {
		for from := reportsPerLap; from < end[d]; from += reportsPerLap {
			copy(lap, stream)
			for i := range lap {
				lap[i].AtSeconds += float64(from/reportsPerLap) * lapSeconds
			}
			n := min(reportsPerLap, end[d]-from)
			if _, err := ref.IngestBatch(lap[:n]); err != nil {
				return fmt.Errorf("reference: %w", err)
			}
		}
	}
	return scenario.VerifyExact(sys.gw, ref)
}

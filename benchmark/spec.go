package main

import (
	"encoding/json"
	"fmt"
	"os"

	"occusim/internal/transport"
)

// Traffic basis, the paper's: one ranging report per 2 s scan, uplinked
// through a BatchingUplink that flushes every 20 s of report time (11
// reports), against building.PaperHouse()'s beacons. A lap is one
// replay of a device's 150-report stream (300 s of report time).
const (
	reportsPerLap = 150
	lapSeconds    = 300.0
	flushSeconds  = 20
	batchReports  = 11
	relayMaxBatch = 64
	retainPerDev  = 1000
	debounce      = 2
)

// Frozen sizing constants. A run is sized by a report count, never by a
// deadline, so both sides of a later diff build identical state: laps =
// lapsPerSecond × --seconds. The rates were calibrated on the seed so
// that the timed phase lasts about --seconds on the reference box (see
// README.md, "Calibration").
const (
	defaultSeconds = 20
	defaultSeed    = 11
	// slices is how many equal parts of the timed phase each end-to-end
	// metric is estimated over; the reported value is their median.
	slices = 6
	// setups is how many complete set-ups a run times; setup_s is their
	// median.
	setups = 3
	// traceScale is the share of the laps the traced passes replay.
	traceScale = 1.0 / 3
	// fillLaps fill shard-durable's 1000-observation retention before
	// the timed phase, so every compaction snapshots a steady state.
	fillLaps = 7
	// recoveryLaps size the recovery phase: 64 devices × 16 laps ×
	// 150 = 153,600 reports replayed by OpenDurableServer.
	recoveryLaps = 16
	// pacedReportsPerS is campus-paced's fixed offered rate, about 40 %
	// of that topology's closed-loop capacity with the same senders.
	pacedReportsPerS = 4000
	// readsPerS is campus-paced's federated read schedule; closedReads
	// is how many read pairs follow a closed-loop timed phase.
	readsPerS   = 20
	closedReads = 4
	// ackLimitMs is the latency limit late_share counts against.
	ackLimitMs = 20.0
	// maxSchedLagMs invalidates an open-loop run whose generator was
	// itself late: the latencies would no longer be the system's.
	maxSchedLagMs = 5.0
)

// workload is one named traffic mix and the topology it drives.
type workload struct {
	name string
	why  string
	// devices is the crowd size; shards the pool size behind the
	// gateway (0: no gateway, one in-process shard).
	devices, shards int
	durable         bool
	codec           transport.Codec
	// relay shares ONE batching uplink among a client's devices (the
	// paper's Bluetooth-relay role) instead of one uplink per device.
	relay bool
	// openLoop sends on a fixed schedule and polls reads beside it.
	openLoop bool
	// lapsPerSecond sizes a closed-loop run (see above).
	lapsPerSecond float64
}

var workloads = []workload{
	{
		name: "fleet-binary",
		why: "closed loop: 256 pre-splitting devices, binary on both HTTP legs, 4 volatile shards; " +
			"transport, wire, the HTTP legs and bms do the work, the WAL none",
		devices: 256, shards: 4, codec: transport.CodecBinary,
		lapsPerSecond: 2.4,
	},
	{
		name: "fleet-json-relay",
		why: "closed loop: same fleet, JSON on both legs, 64-report relay batches split across all 4 shards; " +
			"the compatibility face, server-side split and wait-for-slowest reassembly",
		devices: 256, shards: 4, codec: transport.CodecJSON, relay: true,
		lapsPerSecond: 1.0,
	},
	{
		name: "shard-durable",
		why: "closed loop, no HTTP, no gateway: one fsync=batch shard fed 11-report frames; " +
			"WAL append, group commit, snapshot compaction and replay own the run",
		devices: 64, durable: true, codec: transport.CodecBinary,
		lapsPerSecond: 2.5,
	},
	{
		name: "campus-paced",
		why: "open loop at a fixed 4000 reports/s with 20 reads/s beside it: 2 durable shards, binary gateway; " +
			"latency from the due time, so queueing behind a stall counts",
		devices: 128, shards: 2, durable: true, codec: transport.CodecBinary, openLoop: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricSpec declares one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the bounded metrics, measured on every workload with
// tracing off. Each bound is the relative worsening that counts as a
// regression. They are the resource costs a deployment pays per report —
// allocations, bytes moved, kernel crossings — plus the set-up time:
// counts, because on the reference box only counts repeat. Its CPU runs ±30 %
// faster or slower from one minute to the next, so every wall-clock or
// CPU-time metric spreads wider than the largest bound the driver
// allows (README.md, "Bounds"); the issue's rule for that case is to
// print the metric as informational, which is the next table.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_report", "count", "lower", 0.12},
	{"io_bytes_per_report", "bytes", "lower", 0.12},
	{"syscalls_per_report", "count", "lower", 0.05},
}

// informational are the time-like numbers a user of the system sees —
// throughput, CPU, latency — and the ones defined on one workload only
// or expected to be 0. They are measured untraced exactly as the bounded
// metrics are, printed on every run under the loadgen and store layers,
// stored in the set files (-compare judges them and mostly answers
// "unresolved" on this box), and carried in the per-layer list.
var informational = []metricSpec{
	{Name: "loadgen.reports_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.cpu_us_per_report", Unit: "us", Better: "lower"},
	{Name: "loadgen.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.failed_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.sched_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "store.recover_reports_per_s", Unit: "1/s", Better: "higher"},
}

// informationalBound is what -compare judges the informational timing
// metrics by: the issue's floor of 10 %.
const informationalBound = 0.10

// spanLayers come from the traced pass's boundary spans.
var spanLayers = []metricSpec{
	{Name: "loadgen.self_us_per_report", Unit: "us", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "loadgen.closure_pct", Unit: "%", Better: "higher"},
	{Name: "transport.device_self_us_per_report", Unit: "us", Better: "lower"},
	{Name: "nethttp.device_leg_us_per_report", Unit: "us", Better: "lower"},
	{Name: "fleet.gateway_self_us_per_report", Unit: "us", Better: "lower"},
	{Name: "fleet.shard_wait_us_per_report", Unit: "us", Better: "lower"},
	{Name: "fleet.httpshard_self_us_per_report", Unit: "us", Better: "lower"},
	{Name: "nethttp.shard_leg_us_per_report", Unit: "us", Better: "lower"},
	{Name: "bms.handler_us_per_report", Unit: "us", Better: "lower"},
	{Name: "fleet.read_occupancy_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.read_rollup_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.sections_per_upload", Unit: "count", Better: "lower"},
	{Name: "ring.max_shard_share_pct", Unit: "%", Better: "lower"},
}

// telemetryLayers are read from the system's own obs registry.
var telemetryLayers = []metricSpec{
	{Name: "fleet.split_us_per_report", Unit: "us", Better: "lower"},
	{Name: "fleet.send_us_per_report", Unit: "us", Better: "lower"},
	{Name: "fleet.reassembly_us_per_report", Unit: "us", Better: "lower"},
	{Name: "fleet.presplit_forwarded_share", Unit: "share", Better: "higher"},
	{Name: "fleet.presplit_digest_misses", Unit: "count", Better: "lower"},
	{Name: "transport.retries", Unit: "count", Better: "lower"},
	{Name: "transport.wire_downgrades", Unit: "count", Better: "lower"},
	{Name: "bms.ingest_us_per_report", Unit: "us", Better: "lower"},
	{Name: "bms.dedup_drops", Unit: "count", Better: "lower"},
	{Name: "store.wal_append_us_per_report", Unit: "us", Better: "lower"},
	{Name: "store.wal_fsync_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "store.wal_fsyncs_per_1k_reports", Unit: "count", Better: "lower"},
	{Name: "store.wal_group_commit_frames_mean", Unit: "count", Better: "higher"},
	{Name: "store.wal_compactions", Unit: "count", Better: "lower"},
	{Name: "store.wal_compact_s_total", Unit: "s", Better: "lower"},
	{Name: "store.wal_size_bytes_end", Unit: "bytes", Better: "lower"},
}

// ladderSteps are the single-threaded layer ladder's timed steps; each
// yields <name>_ns_per_report and <name>_allocs_per_report.
var ladderSteps = []string{
	"wire.encode", "wire.decode", "wire.scan",
	"classify.predict", "store.add", "store.wal_append", "store.wal_replay",
	"occupancy.observe",
	"bms.ingest_wire", "bms.ingest_json", "bms.handler", "bms.self",
	"fleet.presplit", "fleet.batch", "fleet.handler",
}

// ladderExtras are the ladder's other readings.
var ladderExtras = []metricSpec{
	{Name: "wire.frame_bytes_per_report", Unit: "bytes", Better: "lower"},
	{Name: "ring.owner_ns_per_lookup", Unit: "ns", Better: "lower"},
	{Name: "store.wal_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_compact_ms", Unit: "ms", Better: "lower"},
}

// perLayer is the full per-layer list, in print order.
func perLayer() []metricSpec {
	out := append([]metricSpec(nil), informational...)
	out = append(out, spanLayers...)
	out = append(out, telemetryLayers...)
	for _, s := range ladderSteps {
		out = append(out,
			metricSpec{Name: s + "_ns_per_report", Unit: "ns", Better: "lower"},
			metricSpec{Name: s + "_allocs_per_report", Unit: "count", Better: "lower"})
	}
	return append(out, ladderExtras...)
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"` // no bounds: Bound is omitted at 0
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// builtinSpec renders the tables above as BENCHMARK.json.
func builtinSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, nameWhy{w.name, w.why})
	}
	return f
}

// loadBounds reads the end-to-end metric list — names, directions and
// bounds — from a BENCHMARK.json, the contract -compare judges by.
func loadBounds(path string) ([]metricSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return f.EndToEnd, nil
}

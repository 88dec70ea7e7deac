package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"occusim/internal/obs"
	"occusim/internal/store"
)

// value is one reported number: the estimate, its own spread (the IQR
// of the six slice estimates, where there are slices) and the sample
// count it rests on.
type value struct {
	V   float64 `json:"value"`
	IQR float64 `json:"iqr,omitempty"`
	N   int     `json:"n"`
	// Slices are the per-slice estimates behind V, in phase order.
	Slices []float64 `json:"slices,omitempty"`
}

// passResult is everything one pass over one workload measured.
type passResult struct {
	wallS     float64 // the timed phase
	reports   int64   // reports acknowledged in the timed phase
	attempted int     // operations: batches + reads
	failed    int
	// cpuUs is the whole timed phase's CPU per report (not the slice
	// median): two passes of one workload do the same total work, so
	// their totals are what the tracing overhead compares.
	cpuUs float64
	// metrics holds every end-to-end, informational and telemetry number
	// by its BENCHMARK.json name; spans the per-layer numbers a traced
	// pass reduces its spans to.
	metrics, spans map[string]value
	// problems are the correctness and non-vacuity checks that failed.
	problems []string
}

// setUp builds the system and plays the untimed warm-up lap, which
// opens the connections, fetches the ring, fills the id caches and
// settles codec negotiation. Everything in here is setup_s.
func setUp(p plan) (*system, error) {
	sys, err := build(p)
	if err != nil {
		return nil, err
	}
	sys.everyClient(func(c *client) { c.drive(p.warmSteps()) })
	if err := sys.clientErr("warm-up"); err != nil {
		_ = sys.close()
		return nil, err
	}
	return sys, nil
}

// everyClient runs fn on one goroutine per client and waits for all.
func (sys *system) everyClient(fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range sys.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

func (sys *system) clientErr(what string) error {
	for _, c := range sys.clients {
		if c.failed > 0 {
			return fmt.Errorf("%s: %d sends failed: %w", what, c.failed, c.lastErr)
		}
	}
	return nil
}

// measure runs the timed phase, the read phase and the checks on a
// warmed-up system.
func (sys *system) measure(io *procIO) (*passResult, error) {
	p, w := sys.plan, sys.plan.w
	res := &passResult{metrics: map[string]value{}}

	total := int64(p.steps()) * int64(w.devices)
	batches := int(total/batchReports) / len(sys.clients)
	if w.openLoop {
		total = int64(p.pacedBatches()) * batchReports
		batches = p.pacedBatches()
	}
	for _, c := range sys.clients {
		c.reserve(batches)
		c.sendNs, c.busyNs = 0, 0
	}

	runtime.GC()
	before := sys.met.TakeSnapshot()
	ph := newPhase(sys.clock, total, io)
	sys.ph = ph
	if sys.tr != nil {
		sys.tr.on.Store(true)
	}
	if err := ph.start(); err != nil {
		return nil, err
	}
	var reads []readRec
	if w.openLoop {
		period := time.Duration(float64(time.Second) * batchReports / pacedReportsPerS)
		nReads := atLeast1(float64(p.seconds) * p.scale * readsPerS)
		start := sys.clock.now() + int64(10*time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads = sys.readLoop(start, time.Second/readsPerS, nReads)
		}()
		for i, c := range sys.clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				c.pace(start, period, p.pacedBatches(), w.devices, len(sys.clients), i)
			}(i, c)
		}
		wg.Wait()
	} else {
		sys.everyClient(func(c *client) {
			c.drive(p.steps())
			c.flush()
		})
	}
	if err := ph.finish(); err != nil {
		return nil, err
	}
	sys.ph = nil
	after := sys.met.TakeSnapshot()
	if !w.openLoop {
		runtime.GC() // the reads start from a settled heap, as the timed phase did
		reads = sys.readLoop(0, 0, 2*closedReads)
	}
	if sys.tr != nil {
		sys.tr.on.Store(false)
	}
	if w.openLoop {
		// The tails below a full batch go out unmeasured and untraced:
		// they are not on the schedule, but the sequence checks count
		// every report.
		sys.everyClient(func(c *client) { c.flush() })
	}

	// --- end-to-end and informational numbers ---
	var acks []ackRec
	var lags []float64
	var busyNs, sendNs int64
	for _, c := range sys.clients {
		acks = append(acks, c.acks...)
		for _, l := range c.lags {
			lags = append(lags, float64(l)/1e6)
		}
		res.failed += c.failed
		busyNs += c.busyNs
		sendNs += c.sendNs
	}
	res.reports = ph.marks[slices].acked
	res.wallS = float64(ph.marks[slices].wallNs-ph.marks[0].wallNs) / 1e9
	res.cpuUs = float64(ph.marks[slices].cpuNs-ph.marks[0].cpuNs) / 1e3 / float64(res.reports)
	late := 0
	for _, a := range acks {
		if float64(a.durNs)/1e6 > ackLimitMs {
			late++
		}
	}
	st := ph.sliceEstimates(acks)
	set := func(name string, per []float64, n int) {
		med, iqr := medianIQR(per)
		res.metrics[name] = value{V: med, IQR: iqr, N: n, Slices: per}
	}
	set("loadgen.reports_per_s", st.reportsPerS, int(res.reports))
	set("loadgen.cpu_us_per_report", st.cpuUs, int(res.reports))
	set("loadgen.ack_p50_ms", st.ackP50Ms, st.ackN)
	set("loadgen.ack_p99_ms", st.ackP99Ms, st.ackN)
	// The two counts are whole-phase ratios, not slice medians: a count
	// repeats run to run, but which slice a compaction's snapshot or a
	// collection lands in does not, and a median would flip with it.
	whole := func(name string, per []float64, delta float64) {
		res.metrics[name] = value{V: delta / float64(res.reports), N: int(res.reports), Slices: per}
	}
	first, last := ph.marks[0], ph.marks[slices]
	whole("allocs_per_report", st.allocs, float64(last.mallocs-first.mallocs))
	whole("io_bytes_per_report", st.ioBytes, float64(last.io.wchar-first.io.wchar))
	whole("syscalls_per_report", st.syscalls, float64(last.io.syscr+last.io.syscw-first.io.syscr-first.io.syscw))

	// The read percentiles are over the rollups alone: a rollup costs
	// ten to a hundred occupancy reads, and a percentile of the mixture
	// would sit on the boundary between the two clusters.
	var rollups []float64
	readFailed := 0
	for _, r := range reads {
		switch {
		case r.failed:
			readFailed++
		case r.rollup:
			rollups = append(rollups, float64(r.durNs)/1e6)
		}
	}
	sort.Float64s(rollups)
	p50, _ := percentile(rollups, 0.50)
	p95, _ := percentile(rollups, 0.95)
	res.metrics["loadgen.read_p50_ms"] = value{V: p50, N: len(rollups)}
	res.metrics["loadgen.read_p95_ms"] = value{V: p95, N: len(rollups)}
	res.failed += readFailed
	// Every batch the phase sent was either acknowledged or failed.
	batchesSent := len(acks) + res.failed - readFailed
	res.attempted = batchesSent + len(reads)
	res.metrics["loadgen.failed_share"] = value{V: float64(res.failed) / float64(res.attempted), N: res.attempted}
	res.metrics["loadgen.late_share"] = value{V: float64(late+res.failed-readFailed) / float64(batchesSent), N: batchesSent}
	sort.Float64s(lags)
	lagP99, _ := percentile(lags, 0.99)
	res.metrics["loadgen.sched_lag_p99_ms"] = value{V: lagP99, N: len(lags)}
	res.metrics["loadgen.self_us_per_report"] = value{V: float64(busyNs-sendNs) / 1e3 / float64(res.reports), N: int(res.reports)}

	sys.telemetry(res, before, after)
	if sys.tr != nil {
		if err := sys.spanMetrics(res, sendNs); err != nil {
			return nil, err
		}
	}
	if w.shards == 0 && w.durable {
		if err := sys.recoveryPhase(res); err != nil {
			return nil, err
		}
	} else {
		res.metrics["store.recover_reports_per_s"] = value{}
	}
	sys.check(res)
	return res, nil
}

// histDelta is what a histogram family (every label set of one name)
// gained between two snapshots.
func histDelta(before, after obs.Snapshot, name string) (sumNs float64, count float64) {
	for key, h := range after.Histograms {
		if key == name || strings.HasPrefix(key, name+"{") {
			b := before.Histograms[key]
			sumNs += float64(h.Sum - b.Sum)
			count += float64(h.Count - b.Count)
		}
	}
	return sumNs, count
}

func counterDelta(before, after obs.Snapshot, name string) float64 {
	var d float64
	for key, v := range after.Counters {
		if key == name || strings.HasPrefix(key, name+"{") {
			d += v - before.Counters[key]
		}
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// telemetry reads the per-layer numbers the system reports about
// itself, as deltas of its obs registry over the timed phase.
func (sys *system) telemetry(res *passResult, before, after obs.Snapshot) {
	n := float64(res.reports)
	put := func(name string, v float64, count float64) {
		res.metrics[name] = value{V: v, N: int(count)}
	}
	perReportUs := func(name, hist string) {
		sum, count := histDelta(before, after, hist)
		put(name, ratio(sum/1e3, n), count)
	}
	perReportUs("fleet.split_us_per_report", "fleet_split_seconds")
	perReportUs("fleet.send_us_per_report", "fleet_send_seconds")
	perReportUs("fleet.reassembly_us_per_report", "fleet_reassembly_seconds")
	perReportUs("bms.ingest_us_per_report", "bms_ingest_seconds")
	perReportUs("store.wal_append_us_per_report", "wal_append_seconds")

	_, uploads := histDelta(before, after, "fleet_ingest_batch_size")
	fwd := counterDelta(before, after, "fleet_presplit_forwarded_total")
	put("fleet.presplit_forwarded_share", ratio(fwd, uploads), uploads)
	put("fleet.presplit_digest_misses", counterDelta(before, after, "fleet_presplit_digest_miss_total"), uploads)
	put("transport.retries", counterDelta(before, after, "transport_retries_total"), uploads)
	put("transport.wire_downgrades", counterDelta(before, after, "transport_wire_downgrades_total"), uploads)
	put("bms.dedup_drops", counterDelta(before, after, "bms_ingest_dedup_drops_total"), n)

	fsyncNs, fsyncs := histDelta(before, after, "wal_fsync_seconds")
	put("store.wal_fsync_ms_mean", ratio(fsyncNs/1e6, fsyncs), fsyncs)
	put("store.wal_fsyncs_per_1k_reports", ratio(fsyncs*1000, n), fsyncs)
	frames, commits := histDelta(before, after, "wal_group_commit_frames")
	put("store.wal_group_commit_frames_mean", ratio(frames, commits), commits)
	compactNs, compactions := histDelta(before, after, "wal_compact_seconds")
	put("store.wal_compactions", compactions, compactions)
	put("store.wal_compact_s_total", compactNs/1e9, compactions)
	var walBytes int64
	for _, srv := range sys.servers {
		// Read per server: the registry's wal_size_bytes gauge is one
		// series, so it shows only the first shard's log.
		walBytes += srv.WALSize()
	}
	put("store.wal_size_bytes_end", float64(walBytes), float64(len(sys.servers)))

	var routed, most int64
	for _, s := range sys.gw.Statuses() {
		routed += s.Routed
		if s.Routed > most {
			most = s.Routed
		}
	}
	if sys.plan.w.shards == 0 {
		routed, most = 1, 1 // one shard takes everything; the gateway is off the ingest path
	}
	put("ring.max_shard_share_pct", 100*ratio(float64(most), float64(routed)), float64(len(sys.shards)))
}

// spanMetrics reduces the traced pass's spans to per-layer self times.
func (sys *system) spanMetrics(res *passResult, sendNs int64) error {
	spans, err := sys.tr.collected()
	if err != nil {
		return err
	}
	s := sumSpans(spans)
	devRT, call, shardRT, handler := s.total[lDevRT], s.total[lShardCall], s.total[lShardRT], s.total[lShardHandler]
	uploads := s.count[lGWIngest]
	if sys.gwURL == "" {
		// No HTTP: the sink calls the shard itself, so the shard call
		// stands where the RoundTrip and the shard's handler would.
		devRT, shardRT, handler = call, call, call
		uploads = s.count[lSink]
	}
	n := float64(res.reports)
	res.spans = map[string]value{}
	us := func(name string, ns int64, l layer) {
		res.spans[name] = value{V: float64(ns) / 1e3 / n, N: int(s.count[l])}
	}
	// transport owns everything under uplink.Send that is not a
	// RoundTrip: batching, sequencing, encode and pre-split.
	us("transport.device_self_us_per_report", sendNs-devRT, lSink)
	us("nethttp.device_leg_us_per_report", s.legSelf, lDevRT)
	us("fleet.gateway_self_us_per_report", s.gwSelf, lGWIngest)
	us("fleet.shard_wait_us_per_report", s.wait, lShardCall)
	us("fleet.httpshard_self_us_per_report", call-shardRT, lShardCall)
	us("nethttp.shard_leg_us_per_report", shardRT-handler, lShardRT)
	us("bms.handler_us_per_report", handler, lShardCall)
	for name, l := range map[string]layer{"fleet.read_occupancy_ms": lReadOcc, "fleet.read_rollup_ms": lReadRollup} {
		res.spans[name] = value{V: ratio(float64(s.total[l])/1e6, float64(s.count[l])), N: int(s.count[l])}
	}
	res.spans["fleet.sections_per_upload"] = value{V: ratio(float64(s.count[lShardCall]), float64(uploads)), N: int(uploads)}
	// Closure: the self times along the blocking path against the
	// measured ack time. They telescope to it when every span linked.
	path := s.sinkSelf + s.legSelf + s.gwSelf + s.wait
	res.spans["loadgen.closure_pct"] = value{V: 100 * ratio(float64(path), float64(s.total[lSink])), N: int(s.count[lSink])}
	if s.unlinked > 0 {
		res.problems = append(res.problems, fmt.Sprintf("trace: %d spans named no upload", s.unlinked))
	}
	return nil
}

// recoveryPhase is shard-durable's second act: a second data directory
// takes recoveryLaps of traffic with fsync off and no compaction, the
// server is abandoned without Close — a killed process — and
// OpenDurableServer on that directory is timed. The recovered server
// must answer the same occupancy as the abandoned one.
func (sys *system) recoveryPhase(res *passResult) error {
	dir, err := os.MkdirTemp(sys.plan.tmpRoot, "recovery-")
	if err != nil {
		return err
	}
	sys.closers = append(sys.closers, func() error { return os.RemoveAll(dir) })
	n := sys.plan.recoveryLaps() * reportsPerLap
	abandoned, err := sys.feedDirect(dir, sys.model, 1, 0, n)
	if err != nil {
		return err
	}
	t := time.Now()
	recovered, err := openServer(sys.b, dir, store.FsyncOff, -1)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	secs := time.Since(t).Seconds()
	reports := n * sys.plan.w.devices
	res.metrics["store.recover_reports_per_s"] = value{V: float64(reports) / secs, N: reports}
	want, err := json.Marshal(abandoned.Occupancy())
	if err != nil {
		return err
	}
	got, err := json.Marshal(recovered.Occupancy())
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		res.problems = append(res.problems, "recovery: the recovered server's occupancy differs from the abandoned one's")
	}
	return nil
}

package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// A gateway whose shards are all traced must still forward pre-split
// uploads verbatim: tracedShard has to satisfy fleet.FrameIngester, or
// IngestPresplit answers ErrPresplitMismatch and the traced pass would
// measure the re-split path without anyone noticing.
func TestTracedShardForwardsFrames(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.NewLocalPool(b, 2, debounce, retainPerDev)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(clock{time.Now()}, 4, 64)
	tr.on.Store(true)
	shards := make([]fleet.Shard, len(pool.Shards))
	for i, s := range pool.Shards {
		if shards[i], err = newTracedShard(s, tr); err != nil {
			t.Fatal(err)
		}
	}
	gw, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	streams, names, _ := experiments.SynthCrowdStreams(b, 1, batchReports, 1)
	owner, err := gw.ShardFor(names[0])
	if err != nil {
		t.Fatal(err)
	}
	body := wire.AppendSection(nil, shards[owner].Name())
	if body, err = encodeFrame(body, streams[0]); err != nil {
		t.Fatal(err)
	}
	var secs []fleet.PresplitSection
	err = wire.ScanSections(body, func(shard, frame, payload []byte) error {
		secs = append(secs, fleet.PresplitSection{Shard: string(shard), Frame: frame, Payload: payload})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.cur[0].Store(7) // device crowd-000's in-flight upload
	rooms, err := gw.IngestPresplit(gw.RingDigest(), secs)
	if err != nil {
		t.Fatalf("pre-split through traced shards: %v", err)
	}
	if len(rooms) != 1 || len(rooms[0]) != batchReports {
		t.Fatalf("rooms = %v, want one section of %d", rooms, batchReports)
	}
	spans, err := tr.collected()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].layer != lShardCall || spans[0].id != 7 {
		t.Fatalf("spans = %+v, want one shard call linked to upload 7", spans)
	}
}

func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	// Overlapping children count once; a child is clipped to its parent.
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 50}, {90, 120}}
	if got := covered(parent, children); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}

	// One relay upload: sink ⊃ RoundTrip ⊃ gateway handler ⊃ two
	// parallel shard calls, plus the unlinked shard-side HTTP spans.
	s := sumSpans([]span{
		{lSink, 1, 0, 100},
		{lDevRT, 1, 10, 90},
		{lGWIngest, 1, 20, 80},
		{lShardCall, 1, 30, 50},
		{lShardCall, 1, 40, 70},
		{lShardRT, 0, 32, 48},
		{lShardHandler, 0, 35, 45},
	})
	want := spanSums{sinkSelf: 20, legSelf: 20, gwSelf: 20, wait: 40}
	if s.sinkSelf != want.sinkSelf || s.legSelf != want.legSelf || s.gwSelf != want.gwSelf || s.wait != want.wait {
		t.Errorf("self times = sink %d leg %d gateway %d wait %d, want %+v", s.sinkSelf, s.legSelf, s.gwSelf, s.wait, want)
	}
	if path := s.sinkSelf + s.legSelf + s.gwSelf + s.wait; path != s.total[lSink] {
		t.Errorf("blocking path %d does not close on the ack time %d", path, s.total[lSink])
	}
	if s.total[lShardCall] != 50 || s.count[lShardCall] != 2 || s.unlinked != 0 {
		t.Errorf("shard calls: total %d count %d unlinked %d", s.total[lShardCall], s.count[lShardCall], s.unlinked)
	}

	// Without a gateway the sink's child is the shard call itself.
	d := sumSpans([]span{{lSink, 2, 0, 50}, {lShardCall, 2, 5, 45}})
	if d.sinkSelf != 10 || d.wait != 40 {
		t.Errorf("direct chain: sink self %d wait %d, want 10 and 40", d.sinkSelf, d.wait)
	}
}

// stallSink acknowledges at once except for one batch, which it holds.
type stallSink struct {
	sent    int
	stallAt int
	stall   time.Duration
	seen    [][]transport.Report
}

func (s *stallSink) Name() string                  { return "stall" }
func (s *stallSink) Send(r transport.Report) error { return s.SendBatch([]transport.Report{r}) }
func (s *stallSink) SendBatch(r []transport.Report) error {
	if s.sent == s.stallAt {
		time.Sleep(s.stall)
	}
	s.sent++
	s.seen = append(s.seen, append([]transport.Report(nil), r...))
	return nil
}

func testSystem(t *testing.T, devices int) *system {
	t.Helper()
	pio, err := openProcIO()
	if err != nil {
		t.Skip(err)
	}
	t.Cleanup(func() { pio.f.Close() })
	sys := &system{plan: plan{w: workload{devices: devices}}, b: building.PaperHouse(), clock: clock{time.Now()}}
	sys.streams, sys.names, _ = experiments.SynthCrowdStreams(sys.b, devices, reportsPerLap, 3)
	sys.ph = newPhase(sys.clock, 1000, pio)
	return sys
}

// In the open loop a latency runs from the due time, so a stalled sink
// delays — and is charged to — the batches that were due during the
// stall, while the generator's own lag stays near zero.
func TestOpenLoopChargesAStallToLaterBatches(t *testing.T) {
	sys := testSystem(t, 2)
	const period, stall, batches = 5 * time.Millisecond, 60 * time.Millisecond, 12
	sink := &stallSink{stallAt: 2, stall: stall}
	c, err := newClient(sys, []int{0, 1}, sink, transport.NewSequencer(1), false)
	if err != nil {
		t.Fatal(err)
	}
	c.reserve(batches)
	c.pace(sys.clock.now()+int64(time.Millisecond), period, batches, 2, 1, 0)
	if len(c.acks) != batches || c.failed != 0 {
		t.Fatalf("%d acks, %d failures, want %d and 0", len(c.acks), c.failed, batches)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	if got := ms(c.acks[1].durNs); got > 20 {
		t.Errorf("batch before the stall waited %.1f ms", got)
	}
	// Batch 3 was due 5 ms into a 60 ms stall: it must carry ≈55 ms of it.
	if got := ms(c.acks[3].durNs); got < 40 {
		t.Errorf("batch due during the stall waited only %.1f ms; the stall was not charged to it", got)
	}
	// The backlog drains in a burst, so a later batch still waits.
	if got := ms(c.acks[6].durNs); got < 20 {
		t.Errorf("batch 6 waited only %.1f ms behind the stall", got)
	}
	for i, lag := range c.lags {
		if ms(lag) > 20 {
			t.Errorf("batch %d: generator lag %.1f ms — the stall leaked into the generator's own lateness", i, ms(lag))
		}
	}
}

func TestLapReplayIsStrictlyIncreasingPerDevice(t *testing.T) {
	sys := testSystem(t, 3)
	sink := &stallSink{stallAt: -1}
	c, err := newClient(sys, []int{0, 1, 2}, sink, transport.NewSequencer(1), false)
	if err != nil {
		t.Fatal(err)
	}
	c.reserve(3 * reportsPerLap)
	c.drive(2*reportsPerLap + 40)
	c.flush()
	if c.failed != 0 {
		t.Fatal(c.lastErr)
	}
	lastAt, lastSeq, count := map[string]float64{}, map[string]uint64{}, map[string]int{}
	for _, batch := range sink.seen {
		for _, r := range batch {
			if n := count[r.Device]; n > 0 && (r.AtSeconds <= lastAt[r.Device] || r.Seq <= lastSeq[r.Device]) {
				t.Fatalf("%s report %d: (at %v, seq %d) after (at %v, seq %d)", r.Device, n, r.AtSeconds, r.Seq, lastAt[r.Device], lastSeq[r.Device])
			}
			lastAt[r.Device], lastSeq[r.Device] = r.AtSeconds, r.Seq
			count[r.Device]++
		}
	}
	for dev, n := range count {
		if want := 2*reportsPerLap + 40; n != want || lastSeq[dev] != uint64(want) {
			t.Errorf("%s: %d reports, last seq %d, want %d", dev, n, lastSeq[dev], want)
		}
	}
	if len(count) != 3 {
		t.Errorf("%d devices seen, want 3", len(count))
	}
}

func TestEstimators(t *testing.T) {
	// Python: statistics.quantiles(range(1, 7), n=4) == [1.75, 3.5, 5.25]
	q1, med, q3 := quartiles([]float64{6, 1, 5, 2, 4, 3})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles of 1..6 = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, med, q3 = quartiles(ten); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, med, q3)
	}
	if med, iqr := medianIQR([]float64{10, 20, 30, 40, 50, 1000}); med != 35 || iqr != 270 {
		t.Errorf("medianIQR = %v, %v; one wild slice must not move the median", med, iqr)
	}
	if med, iqr := medianIQR([]float64{7}); med != 7 || iqr != 0 {
		t.Errorf("medianIQR of one value = %v, %v", med, iqr)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if v, beyond := percentile(hundred, 0.99); v != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %v with %d beyond", v, beyond)
	}
	if v, beyond := percentile(hundred, 0.50); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v with %d beyond", v, beyond)
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "ack_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "reports_per_s", Better: "higher", Bound: 0.10}
	runs := func(v ...float64) side { return side{runs: v} }
	count := metricSpec{Name: "allocs_per_report", Better: "lower", Bound: 0.10}
	cases := []struct {
		name           string
		m              metricSpec
		timing         bool
		parent, change side
		want           verdict
	}{
		{"steady and equal", lower, true, runs(1.00, 1.01, 0.99, 1.00), runs(1.01, 1.00, 1.02, 1.00), same},
		{"steady and 30% slower", lower, true, runs(1.00, 1.01, 0.99, 1.00), runs(1.30, 1.31, 1.29, 1.30), worse},
		{"throughput down 30%", higher, true, runs(100, 101, 99, 100), runs(70, 71, 69, 70), worse},
		{"throughput up", higher, true, runs(100, 101, 99, 100), runs(130, 131, 129, 130), same},
		{"noisy and overlapping", lower, true, runs(1.0, 1.4, 0.8, 1.2), runs(1.1, 1.5, 0.9, 1.3), unresolved},
		{"noisy but every run worse", lower, true, runs(1.0, 1.4, 0.8, 1.2), runs(2.0, 2.6, 1.8, 2.2), worse},
		{"noisy but every run better", lower, true, runs(1.0, 1.4, 0.8, 1.2), runs(0.5, 0.7, 0.4, 0.6), same},
		{"a timing metric, one run a side", lower, true, runs(1), runs(1.5), unresolved},
		{"a count, one run a side, equal", count, false, runs(38.0), runs(38.1), same},
		{"a count, one run a side, 20% up", count, false, runs(38.0), runs(45.6), worse},
		{"a count whose slices spread wide", count, false, side{runs: []float64{1}, within: 0.3}, side{runs: []float64{1.05}, within: 0.3}, unresolved},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.timing, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestDeviceIndexAndFrameDevice(t *testing.T) {
	for name, want := range map[string]int{"crowd-000": 0, "crowd-017": 17, "crowd-1234": 1234, "nodigits": -1, "": -1} {
		if got := deviceIndex(name); got != want {
			t.Errorf("deviceIndex(%q) = %d, want %d", name, got, want)
		}
	}
	frame, err := encodeFrame(nil, []transport.Report{{Device: "crowd-042", AtSeconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(firstFrameDevice(frame)); got != "crowd-042" {
		t.Errorf("firstFrameDevice = %q", got)
	}
	if got := firstFrameDevice(frame[:12]); got != nil {
		t.Errorf("firstFrameDevice of a torn frame = %q", got)
	}
}

// BENCHMARK.json at the repository root must say what the program's
// tables say: the driver reads the file, the program prints by the
// tables.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := builtinSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -spec`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || math.IsNaN(m.Bound) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

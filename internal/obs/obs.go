// Package obs is the fleet's zero-dependency telemetry core: atomic
// counters and gauges, lock-free power-of-two-bucket latency
// histograms, and a bounded ring-buffer "flight recorder" for discrete
// control-plane events (lease transitions, fenced writes, shard
// up/down, migrations, WAL repairs).
//
// Everything is nil-safe: a nil *Metrics hands out nil handles, and
// every method on a nil handle is a no-op returning zeros. Hot paths
// therefore thread instrumentation unconditionally — the uninstrumented
// cost is one predictable nil branch per call site, no interface
// dispatch, no allocation, no lock.
//
// The registry renders two faces: Prometheus text exposition
// (WriteExposition, hand-rolled — this repo takes no dependencies) and
// a JSON snapshot (Snapshot) that includes the recent flight-recorder
// events, served by the bms and fleet HTTP layers as GET /metrics and
// GET /api/v1/telemetry.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value dimension on a metric series (e.g. the shard
// a send-latency histogram measures).
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
type Gauge struct{ v atomic.Int64 }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series kinds, doubling as the Prometheus TYPE keyword.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one registered time series: a name, its label set, and how
// to read it at collection time.
type series struct {
	name   string
	help   string
	kind   string
	labels []Label
	handle any            // the *Counter/*Gauge this series reads, nil for func-backed
	scalar func() float64 // counter/gauge value at scrape time
	hist   *Histogram     // histogram series instead of scalar
	scale  float64        // exposition divisor for hist bounds/sum (1e9: ns→s)
}

// Metrics is the registry. Construct with New; a nil *Metrics is a
// valid "telemetry off" registry whose registration methods return nil
// handles.
type Metrics struct {
	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
	rec    *Recorder
}

// DefaultRecorderCap bounds the flight recorder New attaches.
const DefaultRecorderCap = 512

// New builds an empty registry with an attached flight recorder.
func New() *Metrics {
	return &Metrics{
		byKey: make(map[string]*series),
		rec:   NewRecorder(DefaultRecorderCap),
	}
}

// Recorder returns the registry's flight recorder (nil on a nil
// registry — and a nil *Recorder drops every Record).
func (m *Metrics) Recorder() *Recorder {
	if m == nil {
		return nil
	}
	return m.rec
}

// seriesKey canonicalises name+labels for dedup.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// register adds s unless an identically keyed series exists, in which
// case the existing one is returned (re-instrumenting a component must
// keep appending to the same series, not fork it).
func (m *Metrics) register(s *series) *series {
	key := seriesKey(s.name, s.labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.byKey[key]; ok && prev.kind == s.kind {
		return prev
	}
	m.byKey[key] = s
	m.series = append(m.series, s)
	return s
}

// Counter registers a counter series, or returns the existing handle
// when the same name+labels was registered before.
func (m *Metrics) Counter(name, help string, labels ...Label) *Counter {
	if m == nil {
		return nil
	}
	c := &Counter{}
	s := m.register(&series{
		name: name, help: help, kind: kindCounter, labels: labels, handle: c,
		scalar: func() float64 { return float64(c.Value()) },
	})
	h, _ := s.handle.(*Counter)
	return h
}

// Gauge registers a gauge series, or returns the existing handle when
// the same name+labels was registered before.
func (m *Metrics) Gauge(name, help string, labels ...Label) *Gauge {
	if m == nil {
		return nil
	}
	g := &Gauge{}
	s := m.register(&series{
		name: name, help: help, kind: kindGauge, labels: labels, handle: g,
		scalar: func() float64 { return float64(g.Value()) },
	})
	h, _ := s.handle.(*Gauge)
	return h
}

// CounterFunc registers a counter whose value is read by f at scrape
// time — for components that already keep their own lifetime counts
// (overload gates, routing counters): the hot path stays untouched and
// the scrape pays the read.
func (m *Metrics) CounterFunc(name, help string, f func() float64, labels ...Label) {
	if m == nil {
		return
	}
	m.register(&series{name: name, help: help, kind: kindCounter, labels: labels, scalar: f})
}

// GaugeFunc registers a gauge read by f at scrape time.
func (m *Metrics) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	if m == nil {
		return
	}
	m.register(&series{name: name, help: help, kind: kindGauge, labels: labels, scalar: f})
}

// Timing registers (or retrieves) a latency histogram observed in
// nanoseconds and exposed in seconds (name it *_seconds).
func (m *Metrics) Timing(name, help string, labels ...Label) *Histogram {
	return m.histogram(name, help, 1e9, labels)
}

// Sizes registers (or retrieves) a unitless histogram (batch sizes,
// frame counts), exposed in raw units.
func (m *Metrics) Sizes(name, help string, labels ...Label) *Histogram {
	return m.histogram(name, help, 1, labels)
}

func (m *Metrics) histogram(name, help string, scale float64, labels []Label) *Histogram {
	if m == nil {
		return nil
	}
	h := &Histogram{}
	s := m.register(&series{
		name: name, help: help, kind: kindHistogram, labels: labels,
		hist: h, scale: scale,
	})
	return s.hist
}

// Histogram is a lock-free fixed-bucket histogram over int64 values
// (nanoseconds on the latency paths). Bucket i holds values v with
// bits.Len64(v) == i — power-of-two bounds — and the last bucket
// saturates, so any value maps to exactly one atomic increment.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// HistBuckets is the fixed bucket count: bucket i spans
// [2^(i-1), 2^i) for i ≥ 1, bucket 0 holds {0}, and the final bucket
// saturates (≈9 minutes and beyond, for nanosecond observations).
const HistBuckets = 40

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(v))
	if idx >= HistBuckets {
		return HistBuckets - 1
	}
	return idx
}

// BucketBound returns the inclusive upper bound of bucket i (the
// largest value that maps there); the final bucket is unbounded and
// reports the largest int64.
func BucketBound(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value. Negative values clamp to zero (durations
// cannot be negative; a backwards clock must not crash telemetry).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Since records the nanoseconds elapsed from start.
func (h *Histogram) Since(start time.Time) { h.Observe(int64(time.Since(start))) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets [HistBuckets]uint64
}

// Snapshot copies the histogram's state. Buckets are loaded
// individually, so a snapshot taken mid-observation can be off by the
// in-flight increments — monitoring semantics, not accounting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Quantile returns the value at quantile q in [0, 1] — the upper bound
// of the bucket where the cumulative count crosses q — and 0 when the
// histogram is empty. Power-of-two buckets bound the relative error at
// 2×, which is what stage-level p99s need: order of magnitude and
// trend, not microsecond precision.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total))) // nearest-rank
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(HistBuckets - 1)
}

// collect copies the registry's series under the lock; reads of the
// individual series happen outside it (scalar funcs may take component
// locks of their own).
func (m *Metrics) collect() []*series {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*series(nil), m.series...)
}

// sortedLabels renders labels deterministically (sorted by key).
func sortedLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

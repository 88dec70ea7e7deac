package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var m *Metrics
	c := m.Counter("x_total", "")
	g := m.Gauge("x", "")
	h := m.Timing("x_seconds", "")
	m.CounterFunc("f_total", "", func() float64 { return 1 })
	m.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Add(-2)
	h.Observe(100)
	h.Since(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var rec *Recorder
	rec.Record(EventLeaseClaim, nil)
	if rec.Snapshot() != nil || rec.Total() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	var sb strings.Builder
	if err := m.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, want empty", sb.String())
	}
	snap := m.TakeSnapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Events) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterGauge(t *testing.T) {
	m := New()
	c := m.Counter("ingest_total", "reports ingested")
	g := m.Gauge("inflight", "calls in flight")
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	c.Add(5)
	g.Add(7)
	g.Add(-3)
	if c.Value() != 15 {
		t.Fatalf("counter = %d, want 15", c.Value())
	}
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	// Re-registering the same series returns the same handle.
	if c2 := m.Counter("ingest_total", "reports ingested"); c2 != c {
		t.Fatal("re-registered counter forked a new series")
	}
	// Same name, different labels: distinct series.
	cl := m.Counter("ingest_total", "", L("shard", "s0"))
	if cl == c {
		t.Fatal("labelled series must be distinct from the bare one")
	}
}

func TestConcurrentCounters(t *testing.T) {
	m := New()
	c := m.Counter("c_total", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
}

package main

// The telemetry dashboard: loadgen scrapes the fleet's own metrics —
// GET /api/v1/telemetry on subprocess shards, the in-process registry
// otherwise — at phase boundaries (run start, after every scheduled
// kill, run end) and prints what the load LOOKED LIKE FROM INSIDE:
// goodput and shed rate per phase, cumulative p99 by pipeline stage,
// lease transitions, and the tail of the flight recorder. The same
// scrape path validates the Prometheus exposition of every live
// target, so a malformed /metrics line fails the run — this is the CI
// loadtest's scrape check.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"occusim/internal/obs"
	"occusim/internal/transport"
)

// snapshotSource produces one merged telemetry snapshot per call.
type snapshotSource func() (obs.Snapshot, error)

// registrySource reads an in-process registry directly — no HTTP.
func registrySource(m *obs.Metrics) snapshotSource {
	return func() (obs.Snapshot, error) { return m.TakeSnapshot(), nil }
}

// httpSource scrapes one live target's JSON telemetry face.
func httpSource(base string) snapshotSource {
	client := &http.Client{Timeout: 2 * time.Second}
	return func() (obs.Snapshot, error) {
		payload, err := transport.GetJSON(client, base+"/api/v1/telemetry", transport.RetryPolicy{})
		if err != nil {
			return obs.Snapshot{}, fmt.Errorf("scrape %s: %w", base, err)
		}
		return decodeSnapshot(payload)
	}
}

func decodeSnapshot(payload []byte) (obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return obs.Snapshot{}, err
	}
	return snap, nil
}

// multiSource merges several sources into one fleet-wide view:
// counters sum, gauges take the max, histograms sum their counts and
// report the worst target's quantiles (a true cross-target quantile
// would need the raw buckets; worst-shard p99 is the honest bound).
func multiSource(sources ...snapshotSource) snapshotSource {
	return func() (obs.Snapshot, error) {
		merged := obs.Snapshot{
			Counters:   map[string]float64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]obs.HistogramJSON{},
		}
		for _, src := range sources {
			snap, err := src()
			if err != nil {
				return obs.Snapshot{}, err
			}
			for k, v := range snap.Counters {
				merged.Counters[k] += v
			}
			for k, v := range snap.Gauges {
				if v > merged.Gauges[k] || merged.Gauges[k] == 0 {
					merged.Gauges[k] = v
				}
			}
			for k, h := range snap.Histograms {
				prev := merged.Histograms[k]
				prev.Count += h.Count
				prev.Sum += h.Sum
				if h.P50 > prev.P50 {
					prev.P50 = h.P50
				}
				if h.P90 > prev.P90 {
					prev.P90 = h.P90
				}
				if h.P99 > prev.P99 {
					prev.P99 = h.P99
				}
				if h.Max > prev.Max {
					prev.Max = h.Max
				}
				merged.Histograms[k] = prev
			}
			merged.Events = append(merged.Events, snap.Events...)
			merged.EventTotal += snap.EventTotal
		}
		sort.Slice(merged.Events, func(i, j int) bool {
			return merged.Events[i].AtNanos < merged.Events[j].AtNanos
		})
		return merged, nil
	}
}

// dashPhase is one snapshot with the boundary that produced it.
type dashPhase struct {
	name string
	at   time.Time
	snap obs.Snapshot
}

// dashboard accumulates phase snapshots during a run and renders the
// per-phase report at the end. mark is called from the killer
// goroutine as well as the main one.
type dashboard struct {
	source snapshotSource

	mu     sync.Mutex
	phases []dashPhase
	errs   []error
}

func newDashboard(source snapshotSource) *dashboard {
	return &dashboard{source: source}
}

// mark snapshots the source and closes a phase. Scrape errors are kept
// (and reported) rather than failing mid-run: a shard mid-restart has
// no /metrics to answer with, and that must not kill the drill.
func (d *dashboard) mark(name string) {
	if d == nil {
		return
	}
	snap, err := d.source()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.errs = append(d.errs, fmt.Errorf("phase %q: %w", name, err))
		return
	}
	d.phases = append(d.phases, dashPhase{name: name, at: time.Now(), snap: snap})
}

// counterDelta is the per-phase increase of one counter (0 for the
// first phase, which has no predecessor).
func counterDelta(prev, cur obs.Snapshot, name string) float64 {
	return cur.Counters[name] - prev.Counters[name]
}

// stageP99s lists the pipeline-stage histograms present in a snapshot,
// in pipeline order, as "stage p99" cells.
func stageP99s(snap obs.Snapshot) []string {
	order := []struct{ key, label string }{
		{"fleet_split_seconds", "split"},
		{"bms_ingest_seconds", "ingest"},
		{"wal_append_seconds", "wal append"},
		{"wal_fsync_seconds", "fsync"},
		{"fleet_reassembly_seconds", "reassembly"},
		{"transport_backoff_seconds", "backoff"},
	}
	var cells []string
	for _, st := range order {
		h, ok := snap.Histograms[st.key]
		if !ok || h.Count == 0 {
			continue
		}
		cells = append(cells, fmt.Sprintf("%s %s", st.label, fmtNanos(h.P99)))
	}
	cells = append(cells, labelledP99s(snap, "fleet_send_seconds", "shard", "send")...)
	cells = append(cells, labelledP99s(snap, "fleet_read_seconds", "view", "read")...)
	return cells
}

// labelledP99s lists one labelled histogram family's series that saw
// traffic as "cell[label value] p99", in name order so the row is
// stable: the per-shard send timings, the per-view federated reads.
func labelledP99s(snap obs.Snapshot, family, label, cell string) []string {
	var keys []string
	for k := range snap.Histograms {
		if strings.HasPrefix(k, family) && snap.Histograms[k].Count > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	cells := make([]string, 0, len(keys))
	for _, k := range keys {
		name := cell
		if i := strings.Index(k, label+`="`); i >= 0 {
			rest := k[i+len(label)+2:]
			if j := strings.IndexByte(rest, '"'); j > 0 {
				name = cell + "[" + rest[:j] + "]"
			}
		}
		cells = append(cells, fmt.Sprintf("%s %s", name, fmtNanos(snap.Histograms[k].P99)))
	}
	return cells
}

// fmtNanos renders a raw-nanosecond quantile human-first.
func fmtNanos(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// shedRate computes shed/(admitted+shed) across every admission gate in
// the snapshot delta.
func shedRate(prev, cur obs.Snapshot) (shed, admitted float64) {
	for _, gate := range []string{"bms_gate", "fleet_gate"} {
		shed += counterDelta(prev, cur, gate+"_shed_total")
		admitted += counterDelta(prev, cur, gate+"_admitted_total")
	}
	return shed, admitted
}

// print renders the whole dashboard: one line per phase (deltas
// against the previous mark), the cumulative stage-p99 row, lease and
// breaker transition totals, and the flight recorder's tail.
func (d *dashboard) print() {
	if d == nil {
		return
	}
	d.mu.Lock()
	phases := append([]dashPhase(nil), d.phases...)
	errs := append([]error(nil), d.errs...)
	d.mu.Unlock()
	for _, err := range errs {
		fmt.Printf("telemetry: scrape skipped — %v\n", err)
	}
	if len(phases) < 2 {
		return
	}
	fmt.Println("telemetry dashboard (scraped from the fleet):")
	for i := 1; i < len(phases); i++ {
		prev, cur := phases[i-1], phases[i]
		secs := cur.at.Sub(prev.at).Seconds()
		reports := counterDelta(prev.snap, cur.snap, "bms_ingest_reports_total")
		dups := counterDelta(prev.snap, cur.snap, "bms_ingest_dedup_drops_total")
		goodput := 0.0
		if secs > 0 {
			goodput = (reports - dups) / secs
		}
		line := fmt.Sprintf("  phase %q (%.1fs): %.0f reports ingested (%.0f good/s), %.0f dedup-dropped",
			cur.name, secs, reports, goodput, dups)
		if reports < 0 {
			// A SIGKILLed shard restarts with zeroed counters, dragging
			// the fleet-wide delta negative; say so instead of printing a
			// nonsense rate.
			line = fmt.Sprintf("  phase %q (%.1fs): a restarted shard reset its counters (fleet-wide delta %.0f); rates skipped",
				cur.name, secs, reports)
		}
		if shed, admitted := shedRate(prev.snap, cur.snap); shed > 0 {
			line += fmt.Sprintf(", shed %.1f%%", 100*shed/(shed+admitted))
		}
		for _, c := range []struct{ name, label string }{
			{"bms_lease_claims_total", "lease claims"},
			{"bms_lease_rejects_total", "lease rejects"},
			{"bms_lease_stale_writes_total", "fenced writes"},
			{"fleet_breaker_trips_total", "breaker trips"},
			{"wal_torn_tail_repairs_total", "WAL repairs"},
			{"transport_retries_total", "client retries"},
			{"transport_leader_redirects_total", "leader redirects"},
			{`transport_wire_batches_total{codec="json"}`, "json batches"},
			{`transport_wire_batches_total{codec="binary"}`, "binary batches"},
			{`transport_wire_batches_total{codec="presplit"}`, "presplit batches"},
			{"transport_wire_downgrades_total", "415 downgrades"},
			{"fleet_presplit_forwarded_total", "presplit forwards"},
			{"fleet_presplit_digest_miss_total", "presplit re-splits"},
		} {
			if delta := counterDelta(prev.snap, cur.snap, c.name); delta > 0 {
				line += fmt.Sprintf(", %s +%.0f", c.label, delta)
			}
		}
		fmt.Println(line)
	}
	final := phases[len(phases)-1].snap
	if cells := stageP99s(final); len(cells) > 0 {
		fmt.Printf("  stage p99 (cumulative): %s\n", strings.Join(cells, " | "))
	}
	if epoch := final.Gauges["bms_lease_epoch"]; epoch > 0 {
		fmt.Printf("  lease epoch settled at %.0f\n", epoch)
	}
	if n := len(final.Events); n > 0 {
		tail := final.Events
		if len(tail) > 8 {
			tail = tail[len(tail)-8:]
		}
		var parts []string
		for _, e := range tail {
			parts = append(parts, formatEvent(e))
		}
		fmt.Printf("  flight recorder (%d events, last %d): %s\n",
			final.EventTotal, len(tail), strings.Join(parts, "  "))
	}
}

// formatEvent renders one flight-recorder event as kind{k=v,...} with
// the fields in sorted order.
func formatEvent(e obs.Event) string {
	if len(e.Fields) == 0 {
		return e.Kind
	}
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(e.Kind)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%v", k, e.Fields[k])
	}
	b.WriteByte('}')
	return b.String()
}

// validateLiveMetrics curls GET /metrics on every live target and runs
// the exposition validator: one malformed line fails the whole run.
// This is the scrape-format gate the CI loadtest relies on.
func validateLiveMetrics(targets map[string]string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := targets[name]
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			return fmt.Errorf("scrape %s (%s): %w", name, base, err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("scrape %s: %w", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("scrape %s: /metrics answered %d", name, resp.StatusCode)
		}
		if err := obs.ValidateExposition(payload); err != nil {
			return fmt.Errorf("%s serves malformed exposition: %w", name, err)
		}
		fmt.Printf("telemetry: %s /metrics validated (%d bytes of well-formed exposition)\n", name, len(payload))
	}
	return nil
}

// validateRegistry runs the exposition validator over an in-process
// registry — the no-HTTP equivalent of validateLiveMetrics.
func validateRegistry(m *obs.Metrics) error {
	var buf bytes.Buffer
	if err := m.WriteExposition(&buf); err != nil {
		return err
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		return fmt.Errorf("in-process registry serves malformed exposition: %w", err)
	}
	return nil
}

// assertDrillTelemetry reads every shard's telemetry after a gateway
// drill and turns the failover contract into hard assertions: each
// kill produced EXACTLY ONE successful lease claim on every shard
// (plus the bootstrap claim), and the stale-admit tripwire never
// fired — no deposed gateway's write was ever admitted past the fence.
func assertDrillTelemetry(d *gatewayDrill, kills int) error {
	want := float64(kills + 1) // bootstrap claim + one takeover per kill
	for _, p := range d.fleet.procs {
		snap, err := httpSource("http://" + p.addr)()
		if err != nil {
			return fmt.Errorf("%s telemetry: %w", p.name, err)
		}
		claims := snap.Counters["bms_lease_claims_total"]
		if claims != want {
			return fmt.Errorf("%s granted %.0f lease claims, want exactly %.0f (1 bootstrap + %d takeovers) — a takeover double-claimed or never landed",
				p.name, claims, want, kills)
		}
		if stale := snap.Counters["bms_lease_stale_admits_total"]; stale != 0 {
			return fmt.Errorf("%s admitted %.0f stale-epoch writes past the fence — zombie writes leaked", p.name, stale)
		}
	}
	fmt.Printf("telemetry assertions: every shard granted exactly %.0f lease claims (1 bootstrap + %d takeovers) and admitted 0 stale-epoch writes\n",
		want, kills)
	return nil
}

package main

// The telemetry dashboard: loadgen reads the fleet's own metrics —
// GET /api/v1/telemetry on live processes, the in-process registries
// otherwise — at phase boundaries (run start, at every scheduled kill, run
// end) and prints what the load LOOKED LIKE FROM INSIDE:
// goodput and shed rate per phase, cumulative p99 by pipeline stage,
// lease transitions, and the tail of the flight recorder. Every face's
// Prometheus exposition is validated at the end, so a malformed /metrics
// line fails the run — this is the CI loadtest's scrape check.

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

// scrapeClient bounds every read of a live face.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// face is one telemetry face the run reads: an in-process registry, or a
// live process's JSON telemetry and /metrics exposition.
type face struct {
	name string
	met  *obs.Metrics // in process; nil for a live process at url
	url  string
}

func (f face) snapshot() (obs.Snapshot, error) {
	if f.met != nil {
		return f.met.TakeSnapshot(), nil
	}
	var snap obs.Snapshot
	payload, err := transport.GetJSON(scrapeClient, f.url+"/api/v1/telemetry", transport.RetryPolicy{})
	if err == nil {
		err = json.Unmarshal(payload, &snap)
	}
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("scrape %s: %w", f.name, err)
	}
	return snap, nil
}

func (f face) exposition() ([]byte, error) {
	if f.met != nil {
		var buf bytes.Buffer
		err := f.met.WriteExposition(&buf)
		return buf.Bytes(), err
	}
	resp, err := scrapeClient.Get(f.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return payload, err
}

// validateExposition runs the exposition validator over every face: one
// malformed line fails the whole run.
func validateExposition(w io.Writer, faces []face) error {
	for _, f := range faces {
		payload, err := f.exposition()
		if err != nil {
			return fmt.Errorf("scrape %s: %w", f.name, err)
		}
		if err := obs.ValidateExposition(payload); err != nil {
			return fmt.Errorf("%s serves malformed exposition: %w", f.name, err)
		}
		fmt.Fprintf(w, "telemetry: %s /metrics validated (%d bytes of well-formed exposition)\n", f.name, len(payload))
	}
	return nil
}

// merge folds per-face snapshots into one fleet-wide view: counters sum,
// gauges take the max, histograms sum their counts and report the worst
// face's quantiles (a true cross-face quantile would need the raw
// buckets; worst-shard p99 is the honest bound).
func merge(snaps map[string]obs.Snapshot) obs.Snapshot {
	merged := obs.Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]obs.HistogramJSON{},
	}
	for _, snap := range snaps {
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
			prev.P50 = max(prev.P50, h.P50)
			prev.P90 = max(prev.P90, h.P90)
			prev.P99 = max(prev.P99, h.P99)
			prev.Max = max(prev.Max, h.Max)
			merged.Histograms[k] = prev
		}
		merged.Events = append(merged.Events, snap.Events...)
		merged.EventTotal += snap.EventTotal
	}
	sort.Slice(merged.Events, func(i, j int) bool {
		return merged.Events[i].AtNanos < merged.Events[j].AtNanos
	})
	return merged
}

// dashPhase is one merged snapshot with the boundary that produced it.
type dashPhase struct {
	name string
	at   time.Time
	snap obs.Snapshot
}

// dashboard accumulates phase snapshots during a run and renders the
// per-phase report at the end. mark is called from the kill schedule's
// goroutine as well as the main one.
type dashboard struct {
	scrape func() (map[string]obs.Snapshot, error)

	mu     sync.Mutex
	phases []dashPhase
	errs   []error
}

// mark scrapes every face and closes a phase. A scrape error is kept
// (and reported) rather than failing mid-run: a shard mid-restart has no
// telemetry to answer with, and that must not kill the drill.
func (d *dashboard) mark(name string) {
	snaps, err := d.scrape()
	d.record(name, snaps, err)
}

// record closes a phase on snapshots already taken.
func (d *dashboard) record(name string, snaps map[string]obs.Snapshot, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.errs = append(d.errs, fmt.Errorf("phase %q: %w", name, err))
		return
	}
	d.phases = append(d.phases, dashPhase{name: name, at: time.Now(), snap: merge(snaps)})
}

// counter is one counter's fleet-wide value at every phase boundary.
func (d *dashboard) counter(name string) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	at := make([]float64, len(d.phases))
	for i, ph := range d.phases {
		at[i] = ph.snap.Counters[name]
	}
	return at
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
// fencing totals, and the flight recorder's tail.
func (d *dashboard) print(w io.Writer) {
	d.mu.Lock()
	phases := append([]dashPhase(nil), d.phases...)
	errs := append([]error(nil), d.errs...)
	d.mu.Unlock()
	for _, err := range errs {
		fmt.Fprintf(w, "telemetry: scrape skipped — %v\n", err)
	}
	if len(phases) < 2 {
		return
	}
	fmt.Fprintln(w, "telemetry dashboard (scraped from the fleet):")
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
			{"wal_torn_tail_repairs_total", "WAL repairs"},
			{"transport_retries_total", "client retries"},
			{"transport_leader_redirects_total", "leader redirects"},
			{`transport_wire_batches_total{codec="json"}`, "json batches"},
			{`transport_wire_batches_total{codec="binary"}`, "binary batches"},
			{presplitBatches, "presplit batches"},
			{"transport_wire_downgrades_total", "JSON downgrades"},
			{"fleet_presplit_forwarded_total", "presplit forwards"},
			{"fleet_presplit_digest_miss_total", "presplit re-splits"},
		} {
			if delta := counterDelta(prev.snap, cur.snap, c.name); delta > 0 {
				line += fmt.Sprintf(", %s +%.0f", c.label, delta)
			}
		}
		fmt.Fprintln(w, line)
	}
	final := phases[len(phases)-1].snap
	if cells := stageP99s(final); len(cells) > 0 {
		fmt.Fprintf(w, "  stage p99 (cumulative): %s\n", strings.Join(cells, " | "))
	}
	if epoch := final.Gauges["bms_lease_epoch"]; epoch > 0 {
		fmt.Fprintf(w, "  lease epoch settled at %.0f\n", epoch)
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
		fmt.Fprintf(w, "  flight recorder (%d events, last %d): %s\n",
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

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is -compare's judgement of one (metric, workload) pairing.
type verdict string

const (
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

func readSets(paths []string) ([]setFile, error) {
	var out []setFile
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var sf setFile
		if err := json.Unmarshal(raw, &sf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, sf)
	}
	return out, nil
}

// side is one side's runs of one (metric, workload): the run values and
// the widest within-run spread any of them carried.
type side struct {
	runs   []float64
	within float64 // max slice IQR / value
}

func collect(sets []setFile, workload, metric string) side {
	var s side
	for _, sf := range sets {
		wr := sf.Workloads[workload]
		if wr == nil {
			continue
		}
		v, ok := wr.Metrics[metric]
		if !ok {
			continue
		}
		s.runs = append(s.runs, v.V)
		if rel := ratio(v.IQR, v.V); rel > s.within {
			s.within = rel
		}
	}
	return s
}

// minRuns is how many runs a side needs before its run-to-run spread
// (and a one-sided verdict) means anything.
const minRuns = 4

// spread is a side's relative spread: the distance between the
// quartiles of its runs over their median once there are minRuns of
// them. With fewer, a count falls back on the spread it carried inside
// the run; a timing metric's run-to-run spread is simply unknown —
// on this box it is never smaller than the bound — and reads infinite.
func (s side) spread(timing bool) float64 {
	switch {
	case len(s.runs) >= minRuns:
		q1, med, q3 := quartiles(s.runs)
		return ratio(q3-q1, med)
	case timing:
		return math.Inf(1)
	}
	return s.within
}

// judge applies one bound. The change is worse when its median is worse
// than the parent's by more than the bound; but where the spread is
// wider than the bound the data cannot say so, and the pairing is
// unresolved unless the runs — at least minRuns a side — are one-sided:
// every run of the change worse than every run of the parent (then
// worse) or better than every one (then same).
func judge(m metricSpec, timing bool, parent, change side) (verdict, float64) {
	pm, _ := medianIQR(parent.runs)
	cm, _ := medianIQR(change.runs)
	// rel > 0 means the change reads worse.
	rel := ratio(cm-pm, pm)
	if m.Better == "higher" {
		rel = -rel
	}
	isWorse := func(c, p float64) bool {
		if m.Better == "higher" {
			return c < p
		}
		return c > p
	}
	allWorse, allBetter := true, true
	for _, c := range change.runs {
		for _, p := range parent.runs {
			if isWorse(c, p) {
				allBetter = false
			} else {
				allWorse = false
			}
		}
	}
	noisy := parent.spread(timing) > m.Bound || change.spread(timing) > m.Bound
	if len(parent.runs) < minRuns || len(change.runs) < minRuns {
		allWorse, allBetter = false, false
	}
	switch {
	case noisy && allBetter:
		return same, rel
	case noisy && !(allWorse && rel > m.Bound):
		return unresolved, rel
	case rel > m.Bound:
		return worse, rel
	}
	return same, rel
}

// compareSets prints one row per (metric, workload) and reports whether
// any bounded metric read worse.
func compareSets(w io.Writer, bounds []metricSpec, parentPaths, changePaths []string) (anyWorse bool, err error) {
	parent, err := readSets(parentPaths)
	if err != nil {
		return false, err
	}
	change, err := readSets(changePaths)
	if err != nil {
		return false, err
	}
	// The informational timing metrics are judged too, by the issue's
	// 10 % floor; only a bounded metric's "worse" fails the comparison.
	judged := append([]metricSpec(nil), bounds...)
	for _, m := range informational {
		m.Bound = informationalBound
		judged = append(judged, m)
	}
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for k, m := range judged {
			p, c := collect(parent, wl.name, m.Name), collect(change, wl.name, m.Name)
			if len(p.runs) == 0 || len(c.runs) == 0 {
				continue
			}
			v, rel := judge(m, k >= len(bounds), p, c)
			pm, _ := medianIQR(p.runs)
			cm, _ := medianIQR(c.runs)
			note := ""
			if k >= len(bounds) {
				note = " (informational)"
			}
			fmt.Fprintf(w, "%-16s %-28s %14.4f %14.4f %+8.1f%% %6.0f%%  %s%s\n", wl.name, m.Name, pm, cm, 100*rel, 100*m.Bound, v, note)
			if v == worse && k < len(bounds) {
				anyWorse = true
			}
		}
	}
	return anyWorse, nil
}

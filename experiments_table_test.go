package occusim_test

import (
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"occusim/internal/experiments"
)

// results maps an experiment's name in experiments.All to its result.
type results map[string]experiments.Renderer

// pick reads the values of one row from the result of the experiment
// name, a T.
func pick[T experiments.Renderer](name string, values func(T) []float64) func(results) []float64 {
	return func(r results) []float64 { return values(r[name].(T)) }
}

// tableExtractors keys each row of EXPERIMENTS.md's two tables of
// measured numbers ("Quantity | Paper | Measured | Notes" and "Ablation
// | Measured") by its first cell, and gives the values its Measured cell
// prints, in order.
var tableExtractors = map[string]func(results) []float64{
	"Raw estimate spread at 2 m, 2 s scans (Fig 4)": pick("fig4", func(r *experiments.SignalResult) []float64 { return []float64{r.Summary.StdDev, r.Summary.Mean} }),
	"Filtered spread, c = 0.65 (Fig 5)": pick("fig5", func(r *experiments.SignalResult) []float64 {
		return []float64{r.Summary.StdDev, r.RawSummary.StdDev / r.Summary.StdDev}
	}),
	"Raw spread at 5 s scans (Fig 6)": pick("fig6", func(r *experiments.SignalResult) []float64 { return []float64{r.Summary.StdDev} }),
	"Best filter coefficient (Fig 7)": pick("fig7", func(r *experiments.Fig7Result) []float64 { return []float64{r.Best.Coeff} }),
	"Hand-off crossover lag (Fig 8)": pick("fig8", func(r *experiments.Fig8Result) []float64 {
		return []float64{(r.CrossoverAt - r.PhysicalCrossover).Seconds(), r.FinalErrorB}
	}),
	"Scene-analysis SVM accuracy (Fig 9)": pick("fig9", func(r *experiments.Fig9Result) []float64 {
		return []float64{100 * r.SVMAccuracy, float64(r.FalsePositives), float64(r.FalseNegatives)}
	}),
	"Proximity technique accuracy (Fig 9)": pick("fig9", func(r *experiments.Fig9Result) []float64 { return []float64{100 * r.ProximityAccuracy} }),
	"kNN baseline (Fig 9 ablation)":        pick("fig9", func(r *experiments.Fig9Result) []float64 { return []float64{100 * r.KNNAccuracy} }),
	"Bluetooth uplink saving (Fig 10)":     pick("fig10", func(r *experiments.Fig10Result) []float64 { return []float64{100 * r.SavingFraction} }),
	"Lifetime with app (Fig 10)": pick("fig10", func(r *experiments.Fig10Result) []float64 {
		return []float64{r.WiFiLifetime.Hours(), r.BTLifetime.Hours()}
	}),
	"Nexus 5 vs S3 Mini RSSI gap (Fig 11)":         pick("fig11", func(r *experiments.Fig11Result) []float64 { return []float64{r.MeanGapDB} }),
	"Android samples per 10 s, 2 s scans (Sec V)":  pick("sec5", func(r *experiments.SampleCountResult) []float64 { return []float64{float64(r.AndroidDelivered)} }),
	"iOS raw packets per 10 s (Sec V)":             pick("sec5", func(r *experiments.SampleCountResult) []float64 { return []float64{float64(r.IOSDelivered)} }),
	"Model selection best CV accuracy":             pick("modelselect", func(r *experiments.ModelSelectionResult) []float64 { return []float64{100 * r.Best.Accuracy} }),
	"Head-count exact fraction and MAE (Counting)": pick("counting", func(r *experiments.CountingResult) []float64 { return []float64{100 * r.ExactFraction, r.MAE} }),
	"Loss hold 1 vs 2 cycles": pick("losshold", func(r *experiments.LossHoldResult) []float64 {
		return []float64{100 * r.Points[0].TrackedFraction, 100 * r.Points[1].TrackedFraction}
	}),
	"Log-distance vs ratio model RMSE at 2 m": pick("distmodel", func(r *experiments.DistanceModelResult) []float64 {
		i := slices.IndexFunc(r.Points, func(p experiments.DistanceModelPoint) bool { return p.TrueDistance == 2 })
		return []float64{r.Points[i].LogRMSE, r.Points[i].RatioRMSE}
	}),
	"Scan-period sweep sd gain (shortest→longest)": pick("scanperiod", func(r *experiments.ScanPeriodResult) []float64 {
		return []float64{r.Points[0].EstimateStdDev / r.Points[len(r.Points)-1].EstimateStdDev}
	}),
	"Motion gating energy saving": pick("motiongate", func(r *experiments.MotionGatingResult) []float64 { return []float64{100 * r.SavingFraction} }),
}

var number = regexp.MustCompile(`-?\d+(\.\d+)?`)

// TestExperimentsTable checks every number in the Measured cells of
// EXPERIMENTS.md's two tables against the canonical run of
// experiments.All: each must be its value rounded to the digits it
// prints, so within half a unit in its last digit. A row without an
// extractor, an extractor without a row and a cell with the wrong count
// of numbers fail it too; a wrong number fails with the cell as it
// should read.
func TestExperimentsTable(t *testing.T) {
	r := results{}
	for _, e := range experiments.All(experiments.CanonicalSeed, experiments.Fig10Runs) {
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		r[e.Name] = res
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	col := -1 // the Measured column of the table being read, -1 outside one
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			col = -1
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case col < 0 && (cells[0] == "Quantity" || cells[0] == "Ablation"):
			col = slices.Index(cells, "Measured")
			continue
		case col < 0 || strings.HasPrefix(cells[0], "---"):
			continue
		}
		row, cell := cells[0], cells[col]
		extract, ok := tableExtractors[row]
		if !ok {
			t.Errorf("EXPERIMENTS.md row %q has no extractor", row)
			continue
		}
		seen[row] = true
		got, printed := extract(r), number.FindAllString(cell, -1)
		if len(printed) != len(got) {
			t.Errorf("EXPERIMENTS.md row %q: Measured %q prints %d numbers, the canonical run gives %d: %v",
				row, cell, len(printed), len(got), got)
			continue
		}
		i := 0
		fixed := number.ReplaceAllStringFunc(cell, func(s string) string {
			i++
			return strconv.FormatFloat(got[i-1], 'f', decimals(s), 64)
		})
		if fixed != cell {
			t.Errorf("EXPERIMENTS.md row %q: Measured reads %q, the canonical run gives %v; it should read\n| %s |",
				row, cell, got, fixed)
		}
	}
	for _, row := range slices.Sorted(maps.Keys(tableExtractors)) {
		if !seen[row] {
			t.Errorf("extractor %q has no row in EXPERIMENTS.md", row)
		}
	}
}

// decimals is the count of digits a printed number has after its point.
func decimals(s string) int {
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return len(s) - i - 1
	}
	return 0
}

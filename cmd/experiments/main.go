// Command experiments regenerates every figure of the paper's evaluation
// plus the design ablations, printing each as an ASCII table or strip
// chart. Use -only to select a subset and -seed to change the base seed.
//
//	go run ./cmd/experiments            # everything
//	go run ./cmd/experiments -only fig9 # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"occusim/internal/experiments"
)

type renderer interface{ Render() string }

func main() {
	seed := flag.Uint64("seed", 11, "base random seed")
	only := flag.String("only", "", "comma-separated experiment subset (fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,sec5,losshold,distmodel,scanperiod,motiongate,modelselect,counting)")
	fig10Runs := flag.Int("fig10-runs", 10, "repetitions per uplink for Fig10 (the paper averages 10)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	type entry struct {
		name string
		run  func() (renderer, error)
	}
	entries := []entry{
		{"fig4", func() (renderer, error) { return experiments.Fig4(*seed) }},
		{"fig5", func() (renderer, error) { return experiments.Fig5(*seed) }},
		{"fig6", func() (renderer, error) { return experiments.Fig6(*seed) }},
		{"fig7", func() (renderer, error) { return experiments.Fig7(*seed) }},
		{"fig8", func() (renderer, error) { return experiments.Fig8(*seed) }},
		{"fig9", func() (renderer, error) { return experiments.Fig9(nil) }},
		{"fig10", func() (renderer, error) { return experiments.Fig10(*fig10Runs, *seed) }},
		{"fig11", func() (renderer, error) { return experiments.Fig11(*seed) }},
		{"sec5", func() (renderer, error) { return experiments.Sec5SampleCounts(*seed) }},
		{"losshold", func() (renderer, error) { return experiments.AblationLossHold(*seed) }},
		{"distmodel", func() (renderer, error) { return experiments.AblationDistanceModel(*seed) }},
		{"scanperiod", func() (renderer, error) { return experiments.AblationScanPeriod(*seed) }},
		{"motiongate", func() (renderer, error) { return experiments.AblationMotionGating(*seed) }},
		{"modelselect", func() (renderer, error) { return experiments.ModelSelection(*seed) }},
		{"counting", func() (renderer, error) { return experiments.Counting(4, *seed) }},
		{"devicesurvey", func() (renderer, error) { return experiments.DeviceSurvey(*seed) }},
		{"pathloss", func() (renderer, error) { return experiments.PathLossValidation(*seed) }},
	}

	failed := false
	for _, e := range entries {
		if !selected(e.name) {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		res, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			failed = true
			continue
		}
		fmt.Println(res.Render())
	}
	if failed {
		os.Exit(1)
	}
}

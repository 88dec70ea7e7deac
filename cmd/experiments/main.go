// Command experiments regenerates every figure of the paper's evaluation
// plus the design ablations, printing each as an ASCII table or strip
// chart. Use -only to select a subset and -seed to change the base seed;
// a name it does not know exits 2.
//
//	go run ./cmd/experiments            # everything
//	go run ./cmd/experiments -only fig9 # one experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"unicode"

	"occusim/internal/experiments"
)

// realMain returns the exit status: 2 for a command line experiments
// refuses, 1 for an experiment that fails.
func realMain(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, e := range experiments.All(0, 0) { // a name does not depend on the seed
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", experiments.CanonicalSeed, "base random seed")
	only := fs.String("only", "", "comma-separated experiment subset ("+strings.Join(names, ",")+")")
	fig10Runs := fs.Int("fig10-runs", experiments.Fig10Runs, "repetitions per uplink for Fig10 (the paper averages 10)")
	fs.Parse(args)
	want := map[string]bool{}
	for _, name := range strings.FieldsFunc(strings.ToLower(*only), func(r rune) bool { return r == ',' || unicode.IsSpace(r) }) {
		if !slices.Contains(names, name) {
			fmt.Fprintf(stderr, "experiments: -only: unknown experiment %q (known: %s)\n", name, strings.Join(names, ","))
			return 2
		}
		want[name] = true
	}

	status := 0
	for _, e := range experiments.All(*seed, *fig10Runs) {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		fmt.Fprintf(stdout, "==== %s ====\n", e.Name)
		res, err := e.Run()
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.Name, err)
			status = 1
			continue
		}
		fmt.Fprintln(stdout, res.Render())
	}
	return status
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

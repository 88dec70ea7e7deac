// Command benchmark is the repository's performance instrument: four
// named workloads driven through the real ingest path, end-to-end
// metrics with their own spread, per-layer self times measured from
// outside, and the correctness checks that make the numbers mean
// something. README.md documents the workloads, metrics and flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	ladder   bool
	sets     int
	out      string
	scale    float64
	tmpRoot  string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "timed-phase length the report counts are sized for")
	fs.IntVar(&o.trace, "trace", 0, "0: the untraced run and the end-to-end metrics; 1: the traced passes, the ladder and the per-layer metrics")
	fs.BoolVar(&o.ladder, "ladder", false, "also run the single-threaded layer ladder")
	fs.IntVar(&o.sets, "sets", 1, "run the workload list this many times, alternating its order; writes one JSON per set into -out")
	fs.StringVar(&o.out, "out", "", "directory for the per-set JSON files")
	fs.Float64Var(&o.scale, "scale", 1, "shrink every report count by this factor (the smoke test uses 0.01)")
	fs.StringVar(&o.tmpRoot, "tmp", ".bench_tmp", "directory the durable shards' data directories are created in")
	compare := fs.Bool("compare", false, "compare two sets of runs: -compare a.json[,a2.json…] b.json[,b2.json…]")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as the program's tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *spec:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(builtinSpec()); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two arguments, the parent's set files and the change's"))
		}
		bounds, err := loadBounds("BENCHMARK.json")
		if err != nil {
			return fail(err)
		}
		worse, err := compareSets(stdout, bounds, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if o.trace != 0 && o.trace != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1"))
	}
	if o.seconds < 1 || o.scale <= 0 || o.sets < 1 {
		return fail(fmt.Errorf("-seconds, -scale and -sets must be positive"))
	}
	list := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return fail(err)
		}
		list = []workload{w}
	}
	// Only the default scratch directory is this command's to remove; a
	// caller's -tmp (a test's TempDir) outlives the run.
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		return fail(err)
	}
	if o.tmpRoot == ".bench_tmp" {
		defer os.RemoveAll(o.tmpRoot)
	}
	pio, err := openProcIO()
	if err != nil {
		return fail(err)
	}
	defer pio.f.Close()

	ok := true
	for set := 0; set < o.sets; set++ {
		order := append([]workload(nil), list...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		sf := setFile{Env: currentEnv(o.tmpRoot), Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Workloads: map[string]*workloadResult{}}
		fmt.Fprintf(stdout, "# set %d/%d seed=%d seconds=%d scale=%g %s\n", set+1, o.sets, o.seed, o.seconds, o.scale, sf.Env)
		for _, w := range order {
			wr, err := runWorkload(o, w, pio)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			sf.Workloads[w.name] = wr
			wr.print(stdout, o.trace == 1)
			if len(wr.Problems) > 0 {
				ok = false
			}
		}
		if o.out != "" {
			if err := sf.write(filepath.Join(o.out, fmt.Sprintf("set-%d-seed%d.json", set+1, o.seed))); err != nil {
				return fail(err)
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// workloadResult is one workload's numbers in one set.
type workloadResult struct {
	Name      string           `json:"name"`
	Metrics   map[string]value `json:"metrics"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	// TimedS is how long the measured timed phase took.
	TimedS float64 `json:"timed_s"`
}

// setFile is what -sets writes per set and -compare reads.
type setFile struct {
	Env       envInfo                    `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (sf setFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runWorkload runs one workload as the flags ask. With -trace 0: the
// set-up timed `setups` times, then the measured pass. With -trace 1:
// an untraced and a traced pass at traceScale (their CPU difference is
// the tracing overhead) and the ladder.
func runWorkload(o options, w workload, pio *procIO) (*workloadResult, error) {
	p := plan{w: w, seed: o.seed, seconds: o.seconds, scale: o.scale, tmpRoot: o.tmpRoot}
	wr := &workloadResult{Name: w.name, Metrics: map[string]value{}}
	merge := func(res *passResult, metrics map[string]value) {
		for name, v := range metrics {
			wr.Metrics[name] = v
		}
		wr.Attempted += res.attempted
		wr.Failed += res.failed
		wr.Problems = append(wr.Problems, res.problems...)
	}
	pass := func(p plan) (*passResult, error) {
		n := setups
		if p.scale < 1 {
			n = 1 // only the measured run reports setup_s
		}
		var times []float64
		var sys *system
		for i := 0; i < n; i++ {
			if sys != nil {
				if err := sys.close(); err != nil {
					return nil, err
				}
			}
			t := time.Now()
			var err error
			if sys, err = setUp(p); err != nil {
				return nil, err
			}
			times = append(times, time.Since(t).Seconds())
		}
		res, err := sys.measure(pio)
		if cerr := sys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		med, iqr := medianIQR(times)
		res.metrics["setup_s"] = value{V: med, IQR: iqr, N: len(times)}
		return res, nil
	}

	if o.trace == 0 {
		res, err := pass(p)
		if err != nil {
			return nil, err
		}
		merge(res, res.metrics)
		wr.TimedS = res.wallS
	} else {
		p.scale *= traceScale
		plain, err := pass(p)
		if err != nil {
			return nil, err
		}
		p.traced = true
		traced, err := pass(p)
		if err != nil {
			return nil, err
		}
		merge(plain, plain.metrics)
		merge(traced, traced.spans)
		wr.TimedS = plain.wallS
		wr.Metrics["loadgen.trace_overhead_pct"] = value{V: 100 * ratio(traced.cpuUs-plain.cpuUs, plain.cpuUs), N: int(traced.reports)}
	}
	if o.ladder || o.trace == 1 {
		lad, err := runLadder(p)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for name, v := range lad {
			wr.Metrics[name] = v
		}
	}
	return wr, nil
}

// print writes every metric by name with its unit, spread and sample
// count, then the problems, then — as the last line, which is what the
// driver parses — one JSON object.
func (wr *workloadResult) print(w io.Writer, perLayerLine bool) {
	fmt.Fprintf(w, "## %s: timed phase %.1f s, %d operations, %d failed\n", wr.Name, wr.TimedS, wr.Attempted, wr.Failed)
	section := func(title string, specs []metricSpec) {
		printed := false
		for _, m := range specs {
			v, ok := wr.Metrics[m.Name]
			if !ok {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "# %s\n", title)
				printed = true
			}
			fmt.Fprintf(w, "%-16s %-42s %14.4f %-6s iqr=%-10.4g n=%d", wr.Name, m.Name, v.V, m.Unit, v.IQR, v.N)
			if len(v.Slices) > 0 {
				fmt.Fprintf(w, " slices=%.4g", v.Slices)
			}
			fmt.Fprintln(w)
		}
	}
	section("end-to-end", endToEnd)
	section("per-layer", perLayer())
	for _, prob := range wr.Problems {
		fmt.Fprintf(w, "PROBLEM %s: %s\n", wr.Name, prob)
	}
	specs := endToEnd
	if perLayerLine {
		specs = perLayer()
	}
	line := driverLine{Correct: len(wr.Problems) == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]driverMetric{}}
	for _, m := range specs {
		line.Metrics[m.Name] = driverMetric{Value: wr.Metrics[m.Name].V, Unit: m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		raw = []byte(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	}
	fmt.Fprintf(w, "%s\n", raw)
}

// driverLine is the result object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

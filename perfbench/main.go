// Command perfbench is the repository's benchmark. It runs one named
// workload of the PowerMANNA simulator for a fixed host-time budget,
// checks every pass's output, and prints the workload's metrics by name
// with their units, each labelled host time or simulated time. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// end_to_end), measured with tracing off. With --trace 1 the run instead
// times sequential passes with and without spans around every public call
// it makes, writes the spans and their self times to .bench_build/spans/,
// and times the per-layer microbenchmarks (BENCHMARK.json per_layer).
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash perfbench/run.sh --workload heat-s256 --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 7 --trace 1   (end-to-end and per-layer)
//	bash perfbench/run.sh --write-spec BENCHMARK.json
//	bash perfbench/run.sh --record perfbench/baseline.json
//
// A failed check makes the run print "correct": false and exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload name, or all")
		seed      = fs.Int64("seed", 1, "workload seed (goldens are checked at seed 1)")
		seconds   = fs.Float64("seconds", runSeconds, "host seconds one workload measures")
		traceFlag = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced passes and per-layer metrics")
		spec      = fs.String("write-spec", "", "write BENCHMARK.json to this path and exit")
		onePass   = fs.Bool("one-pass", false, "run one sequential pass of --workload and exit (the child process peak_rss_mb measures)")
		record    = fs.String("record", "", "measure every workload at seed 1 and the held-out seed, end-to-end and per-layer, and write the record to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec != "":
		b, err := benchmarkFile()
		if err == nil {
			err = os.WriteFile(*spec, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	case *record != "":
		return writeRecord(*record, time.Duration(*seconds*float64(time.Second)), stdout, stderr)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	if *onePass {
		if len(selected) != 1 {
			fmt.Fprintf(stderr, "perfbench: --one-pass runs one workload\n")
			return 2
		}
		_, err := selected[0].pass(*seed, false, nil)
		var kb int64
		if err == nil {
			kb, err = vmHWMKB()
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "vmhwm_kb %d\n", kb)
		return 0
	}
	res := measure(selected, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, stdout, stderr)
	return printResult(res, stdout, stderr)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure runs the selected workloads and prints a labelled line per
// metric. One workload reports the end-to-end metrics, or with traced the
// per-layer ones; several workloads report the end-to-end metrics and,
// with traced, the per-layer ones too, each name prefixed with its
// workload's.
func measure(selected []*workload, seed int64, budget time.Duration, traced bool, stdout, stderr io.Writer) result {
	res := result{Metrics: map[string]value{}}
	var t tally
	for _, w := range selected {
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "."
		}
		if !traced || len(selected) > 1 {
			vals, wt := measureEndToEnd(w, seed, budget, stderr)
			t.add(wt)
			report(stdout, w.name, seed, endToEnd, vals, prefix, res.Metrics)
		}
		if !traced {
			continue
		}
		spanPath := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		vals, wt := measureTraced(w, seed, budget, spanPath, stderr)
		t.add(wt)
		report(stdout, w.name, seed, perLayer, vals, prefix, res.Metrics)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res
}

// report prints one labelled line per metric and adds it to into.
func report(w io.Writer, workload string, seed int64, ms []metric, vals map[string]float64, prefix string, into map[string]value) {
	for _, m := range ms {
		v, ok := vals[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-14s seed %-3d %-28s %14.6g %-6s %s time\n", workload, seed, m.name, v, m.unit, m.clock)
		into[prefix+m.name] = value{v, m.unit}
	}
}

// printResult prints the JSON line and turns any failed check into exit 1.
func printResult(res result, stdout, stderr io.Writer) int {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d checks failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// writeRecord measures every workload at seed 1 and at the held-out seed
// in both trace modes and writes the first-measured values with the host
// facts they were taken on.
func writeRecord(path string, budget time.Duration, stdout, stderr io.Writer) int {
	type seedRun struct {
		Seed      int64            `json:"seed"`
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	type described struct {
		Name  string `json:"name"`
		Unit  string `json:"unit"`
		Clock string `json:"clock"`
		Doc   string `json:"doc"`
		Moves string `json:"moves,omitempty"`
	}
	rec := struct {
		Host        map[string]any `json:"host"`
		HeldOutSeed int64          `json:"held_out_seed"`
		Fidelity    []string       `json:"fidelity"`
		Workloads   []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []described `json:"end_to_end"`
		PerLayer []described `json:"per_layer"`
		Runs     []seedRun   `json:"runs"`
	}{
		Host: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"run_seconds": budget.Seconds(),
		},
		HeldOutSeed: heldOutSeed,
		Fidelity: []string{
			"paper_err_pct compares the simulated headline values below against the paper's stated numbers; these are the calibration targets the model was tuned to (DESIGN.md section 5), not held-out data.",
			"The System256 workloads (campaign-s256, traffic-s256, heat-s256) are unvalidated: the paper measured only the 8-node prototype.",
		},
	}
	figs, err := runFigures(paperFigures, 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, r := range paperRefs {
		got, err := headline(figs[r.fig], r)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rec.Fidelity = append(rec.Fidelity, fmt.Sprintf("%s %s: paper %g, simulated %.4g (%s)", r.fig, r.series, r.want, got, r.cite))
	}
	for _, w := range workloads {
		rec.Workloads = append(rec.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, m := range endToEnd {
		rec.EndToEnd = append(rec.EndToEnd, described{m.name, m.unit, m.clock, m.doc, ""})
	}
	for _, m := range perLayer {
		rec.PerLayer = append(rec.PerLayer, described{m.name, m.unit, m.clock, m.doc, m.moves})
	}
	code := 0
	for _, seed := range []int64{1, heldOutSeed} {
		res := measure(workloads, seed, budget, true, stdout, stderr)
		if !res.Correct {
			code = 1
		}
		rec.Runs = append(rec.Runs, seedRun{seed, res.Correct, res.Attempted, res.Failed, res.Metrics})
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return code
}

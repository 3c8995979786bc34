// Command pmbench regenerates the tables and figures of the paper's
// evaluation section (plus the ablations) and prints them as text tables
// and ASCII plots.
//
// Usage:
//
//	pmbench                  # run everything at quick sweep sizes
//	pmbench -full            # full sweeps (the paper's plotted ranges)
//	pmbench -exp fig9,fig12  # selected experiments
//	pmbench -list            # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"powermanna"
	"powermanna/internal/psim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and writes their
// results to stdout. It returns the process exit code: 0 on success, 1
// on a bad value (with the reason on stderr, before any experiment
// runs), 2 on a malformed command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		full     = fs.Bool("full", false, "run full sweeps instead of quick ones")
		listOnly = fs.Bool("list", false, "list experiment IDs and exit")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON instead of tables and plots")
		engine   = fs.String("engine", "seq", "event engine for campaign-backed experiments: seq or par (byte-identical output)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pmbench: %v\n", err)
		return 1
	}

	known := powermanna.ExperimentIDs()
	if *listOnly {
		for _, id := range known {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	eng, err := psim.ParseKind(*engine)
	if err != nil {
		return fail(err)
	}
	opt := powermanna.ExperimentOptions{Quick: !*full, Engine: eng}
	ids := known
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
		// Every ID is checked before any experiment runs, so a typo
		// never leaves a partial report on stdout.
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !slices.Contains(known, ids[i]) {
				return fail(fmt.Errorf("unknown experiment %q (have %s)", ids[i], strings.Join(known, ", ")))
			}
		}
	}

	for _, id := range ids {
		// Wall-clock harness timing goes to stderr only: stdout is the
		// results channel and must be a pure function of the model, so two
		// runs with the same flags are byte-identical (the determinism
		// contract; see DESIGN.md).
		start := time.Now()
		r, err := powermanna.RunExperiment(id, opt)
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			b, err := r.JSON()
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, string(b))
		} else {
			fmt.Fprintln(stdout, r.Render())
		}
		fmt.Fprintf(stderr, "(%s took %.1fs)\n", id, time.Since(start).Seconds())
	}
	return 0
}
